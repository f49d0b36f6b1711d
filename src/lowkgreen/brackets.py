"""Ordered-simplex integrals of exponential weights of the potential.

A bracket of depth n is the integral of a product of n weight factors over
the simplex lower <= z_1 <= ... <= z_n <= upper.  Plain factors are
exp(sign * V); the angle variants replace the factor adjacent to an
infinite end with 2 e^{-V_lim} sinh(V_lim - V), which is what makes the
integral converge when V has a finite limit there.

Evaluation is one cumulative pass per level: with the innermost level
integrated first, level j is the running integral of (weight_j * level_{j-1}),
so the cost is linear in depth.  Semi-infinite ends are truncated where the
declared decay bounds the dropped tail below ``truncation_tail_tol``.

One level loop, ``_run_levels``, serves every ordered integral, on the span
that one cut routine, ``_cut_span``, gives.  It fits level 0 on
``_initial_edges`` and every later level on level 0's leaves, each at
rel_tol / (2 depth).  Each level holds one function per state:
``build_states`` runs it over every sign sequence of a coefficient family
at once, summed by the partial sums of their signs, and ``build_chain``
runs one sign sequence as a path with one state per level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._quad import PiecewiseChebFun, build_chebfun
from .errors import DivergentTail, InvalidSpec
from .potential import Decay, EndpointKind, PotentialModel


class BracketKind(enum.Enum):
    PLAIN = "plain"
    ANGLE_LEFT = "angle_left"
    ANGLE_RIGHT = "angle_right"


@dataclass(frozen=True)
class BracketSpec:
    kind: BracketKind
    signs: tuple
    lower: float
    upper: float

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        object.__setattr__(self, "signs", signs)
        if len(signs) < 1 or any(s not in (-1, 1) for s in signs):
            raise InvalidSpec("signs must be a non-empty tuple of +-1")
        for name in ("lower", "upper"):
            if math.isnan(getattr(self, name)):
                raise InvalidSpec(f"{name} limit is NaN")
        if not self.lower <= self.upper:
            raise InvalidSpec(f"lower {self.lower} > upper {self.upper}")
        if self.lower == math.inf or self.upper == -math.inf:
            raise InvalidSpec("an ordered integral cannot start at +infinity "
                              "or end at -infinity")
        if self.kind is BracketKind.ANGLE_LEFT:
            if not math.isinf(self.lower) or self.lower > 0:
                raise InvalidSpec("angle-left brackets start at -infinity")
            if signs[0] != -1:
                raise InvalidSpec("the sinh slot of an angle bracket carries -1")
        if self.kind is BracketKind.ANGLE_RIGHT:
            if not math.isinf(self.upper) or self.upper < 0:
                raise InvalidSpec("angle-right brackets end at +infinity")
            if signs[-1] != -1:
                raise InvalidSpec("the sinh slot of an angle bracket carries -1")

    @property
    def depth(self) -> int:
        return len(self.signs)

    @property
    def right_anchored(self) -> bool:
        """Whether the chain runs from the right: the upper end is infinite
        and the lower one finite, so the lower end is the open one."""
        return math.isinf(self.upper) and not math.isinf(self.lower)

    def sign_string(self) -> str:
        return "".join("+" if s > 0 else "-" for s in self.signs)


@dataclass(frozen=True)
class QuadratureConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_depth: int = 40
    truncation_tail_tol: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "truncation_tail_tol"):
            # NaN fails every comparison, so it must not pass as positive:
            # a NaN rel_tol refines every panel to max_depth
            if not getattr(self, name) > 0:
                raise InvalidSpec(f"{name} must be positive")
        if self.max_depth <= 0:
            raise InvalidSpec("max_depth must be positive")


def _endpoint(model: PotentialModel, side: str):
    ep = model.left if side == "left" else model.right
    if ep is None:
        raise InvalidSpec(
            f"model {model.id!r} declares no {side} endpoint class")
    return ep


def _weight_factory(model: PotentialModel, spec: BracketSpec):
    """List of per-slot weight callables, slot order z_1 .. z_n."""
    out = []
    for j, s in enumerate(spec.signs):
        if spec.kind is BracketKind.ANGLE_LEFT and j == 0:
            v1 = _endpoint(model, "left").limit_value
            if v1 is None:
                raise InvalidSpec("angle-left bracket needs a finite left limit")
            out.append(lambda z, v1=v1: 2.0 * np.exp(-v1)
                       * np.sinh(v1 - model.V(z)))
        elif spec.kind is BracketKind.ANGLE_RIGHT and j == spec.depth - 1:
            v2 = _endpoint(model, "right").limit_value
            if v2 is None:
                raise InvalidSpec("angle-right bracket needs a finite right limit")
            out.append(lambda z, v2=v2: 2.0 * np.exp(-v2)
                       * np.sinh(v2 - model.V(z)))
        else:
            out.append(lambda z, s=s: np.exp(s * model.V(z)))
    return out


def _edge_weight_decay(model: PotentialModel, spec: BracketSpec, side: str) -> Decay:
    """Decay descriptor of the factor adjacent to the infinite end.

    Raises DivergentTail when the adjacent factor does not decay at all
    (the integral cannot exist).
    """
    ep = _endpoint(model, side)
    if spec.kind is not BracketKind.PLAIN:
        if (side == "left") == (spec.kind is BracketKind.ANGLE_LEFT):
            # sinh factor decays like |V - limit|
            return ep.decay
        raise InvalidSpec("angle bracket truncated on the wrong side")
    sign = spec.signs[0] if side == "left" else spec.signs[-1]
    if ep.kind is EndpointKind.PLUS_INFINITY and sign == -1:
        return ep.decay
    if ep.kind is EndpointKind.MINUS_INFINITY and sign == 1:
        return ep.decay
    raise DivergentTail(
        f"slot weight exp({sign:+d}V) does not decay toward the {side} end "
        f"of {model.id!r}")


def _find_cut(weight, anchor: float, direction: int, depth: int,
              decay: Decay, cfg: QuadratureConfig) -> float:
    """Point beyond which the dropped tail mass is below the tail tolerance.

    ``direction`` is -1 for a left (-infinity) cut, +1 for a right one.
    The weighted probe includes the |z|^(depth-1) simplex volume factor.
    """
    tol = cfg.truncation_tail_tol
    scale = 1.0 + abs(float(np.asarray(weight(np.array([anchor])))[0]))
    if decay.is_power_like:
        a = decay.alpha
        if a <= depth:
            raise DivergentTail(
                f"power tail alpha={a} too slow for a depth-{depth} bracket")
        # integral_X^inf z^(depth-1) z^-a dz = X^(depth-a)/(a-depth)
        x_a = (1.0 / ((a - depth) * tol)) ** (1.0 / (a - depth))
        start = max(1.0, x_a, abs(anchor) + 1.0)
    else:
        start = 1.0

    def small(d):
        z = np.array([anchor + direction * d])
        w = abs(float(np.asarray(weight(z))[0]))
        try:
            simplex = (1.0 + abs(d)) ** (depth - 1)
        except OverflowError:
            raise DivergentTail(
                f"the depth-{depth} simplex factor overflows {d:.3g} from "
                f"the anchor: the tail is too slow for the tolerance") from None
        return w * simplex < tol * scale

    # Keep the cut as tight as the tolerance allows: over-deep cuts make the
    # intermediate cumulative functions underflow, and the junk that leaves
    # behind is amplified by growing weights later in the chain.
    d = start if decay.is_power_like else 0.5
    for _ in range(600):
        if small(d) and small(1.3 * d):
            return anchor + direction * 1.15 * 1.3 * d
        d *= 1.3
    raise DivergentTail(
        "could not locate an integrable tail toward the "
        f"{'left' if direction < 0 else 'right'} end")


def _clip_overflow(weights, anchor: float, cut: float) -> float:
    """Pull the cut toward the anchor until every slot weight is representable.

    Where one factor grows its partner decays reciprocally, so at the
    overflow boundary of the growing factor the dropped tail is far below
    any tolerance.
    """
    with np.errstate(over="ignore"):
        for _ in range(400):
            vals = [abs(float(np.asarray(w(np.array([cut])))[0])) for w in weights]
            if all(v < 1e280 for v in vals):
                return cut
            cut = anchor + 0.95 * (cut - anchor)
            if abs(cut - anchor) < 0.25:
                return cut
    return cut


def _ladder(near: float, far: float) -> list:
    """Geometrically graded edges from ``near`` toward ``far``."""
    out = [near]
    step = 1.0
    pos = near
    sgn = 1.0 if far > near else -1.0
    while (far - pos) * sgn > step:
        pos += sgn * step
        out.append(pos)
        step *= 2.0
    out.append(far)
    return out


def _initial_edges(model, lo, hi):
    edges = set(_ladder(hi, lo))
    edges.update(_ladder(lo, hi))
    edges.update(b for b in model.breakpoints if lo < b < hi)
    edges.update((lo, hi))
    return sorted(edges)


def _cut_span(model: PotentialModel, spec: BracketSpec, weights: list,
              depth: int, cfg: QuadratureConfig,
              open_anchor: Optional[float] = None) -> tuple:
    """The finite span (lo, hi) that the levels of ``spec`` run over.

    A finite end stays where it is, moved out to ``open_anchor`` if that
    lies beyond it.  An infinite end is cut where the tail dropped by the
    depth-``depth`` integral is below ``truncation_tail_tol``, judged on
    weights[0], the factor next to it (``weights`` are in level order), and
    pulled in until every weight is representable.  A doubly infinite
    span is cut on both sides of 0 and exists at depth 1 only.
    """
    def cut(side, anchor):
        decay = _edge_weight_decay(model, spec, side)
        direction = -1 if side == "left" else 1
        return _clip_overflow(weights, anchor, _find_cut(
            weights[0], anchor, direction, depth, decay, cfg))

    lo, hi = spec.lower, spec.upper
    if math.isinf(lo) and math.isinf(hi):
        if depth > 1:
            raise InvalidSpec(
                "doubly infinite brackets are supported at depth 1 only")
        return cut("left", 0.0), cut("right", 0.0)
    if open_anchor is None:
        anchor = lo if spec.right_anchored else hi
    else:
        anchor = min(lo, open_anchor) if spec.right_anchored else max(hi, open_anchor)
    if math.isinf(anchor):
        raise InvalidSpec("the open end of a chain needs a finite anchor")
    if spec.right_anchored:
        return anchor, cut("right", anchor)
    return (cut("left", anchor) if math.isinf(lo) else lo), anchor


def _run_levels(model: PotentialModel, cfg: QuadratureConfig, first,
                starts: dict, step, depth: int, lo: float, hi: float,
                from_right: bool) -> tuple:
    """The level loop behind every ordered integral, on [lo, hi].

    Level 0 is the cumulative integral C of ``first``, fitted on
    ``_initial_edges``, and holds {r: (c, C)} for every ``starts[r] = c``.
    Each later level j maps states to (scalar, cumulative integral of an
    integrand), where ``step(j, level)`` gives {r: (c, integrand)} from the
    level before.  Every fit uses the tolerance rel_tol / (2 depth), and
    the cumulative integrals vanish at the anchored end (the right one
    when ``from_right``).  Returns (one dict per level, the sum of the fit
    residuals).
    """
    level_tol = cfg.rel_tol / (2.0 * max(1, depth))
    residual = 0.0

    def chain(integrand, edges):
        nonlocal residual
        fit = build_chebfun(integrand, edges, rel_tol=level_tol,
                            abs_floor=cfg.abs_tol, max_depth=cfg.max_depth)
        residual += fit.fit_residual
        return fit.antiderivative(from_right=from_right)

    head = chain(first, _initial_edges(model, lo, hi))
    level = {r: (c, head) for r, c in starts.items()}
    table = [level]
    for j in range(1, depth):
        # every later fit starts from level 0's leaves: inheriting the
        # previous level's leaves lets them pile up from level to level
        level = {r: (c, chain(integrand, head.edges))
                 for r, (c, integrand) in step(j, level).items()}
        table.append(level)
    return table, residual


def build_chain(spec: BracketSpec, model: PotentialModel,
                cfg: QuadratureConfig,
                open_anchor: Optional[float] = None) -> PiecewiseChebFun:
    """Build the cumulative chain, choosing the anchored end automatically.

    The chain is the depth-n cumulative integral as a function of the open
    end: for a left-anchored chain (lower end fixed, possibly truncated
    from -infinity) it maps upper limits to values; for a right-anchored
    chain (upper end +infinity, lower end finite) it maps lower limits.
    Its ``fit_residual`` is the relative error estimate.  ``open_anchor``
    bounds the variable end (the largest upper limit that will be
    requested for a left-anchored chain, or the smallest lower limit for a
    right-anchored one).

    The sign sequence runs through ``_run_levels`` as a path with one
    state per level: level 0 integrates the slot weight at the far end
    from the anchor, and each later level the next slot's e^{sigma V}
    times the level before.  An empty span [a, a] gives the zero chain.
    """
    weights = _weight_factory(model, spec)
    if spec.right_anchored:
        weights.reverse()
    lo, hi = _cut_span(model, spec, weights, spec.depth, cfg, open_anchor)
    if lo == hi:
        # the zero function, on a unit panel so that it evaluates anywhere
        return PiecewiseChebFun([lo, lo + 1.0], np.zeros((1, 2)))

    def step(j, level):
        w, h = weights[j], level[0][1]
        return {0: (1.0, lambda z: np.asarray(w(z)) * h(z))}

    table, residual = _run_levels(model, cfg, weights[0], {0: 1.0}, step,
                                  spec.depth, lo, hi, spec.right_anchored)
    last = table[-1][0][1]
    return PiecewiseChebFun(last.edges, last.coefs,
                            fit_residual=residual + cfg.truncation_tail_tol)


def build_states(model: PotentialModel, cfg: QuadratureConfig,
                 kind: BracketKind, flip: bool, starts: dict, depth: int,
                 lower: float, upper: float) -> list:
    """The chains of every sign sequence of one family, summed by state.

    The family's brackets start at the infinite end with ``kind``'s weight
    (e^{-sV} for a plain bracket, the sinh weight for an angle one), and
    their later slots carry e^{s sigma_1 V}, ..., e^{s sigma_m V}, with
    s = -1 when ``flip`` (V -> -V) and +1 otherwise.  Each chain is weighted
    by starts[r_0] * prod_j (1 + r_j)(-sigma_j), where r_j is the sum of the
    signs after sigma_j (r_0 sums them all).  That weight depends on the
    sequence only through these states, so level j (slot j + 1) holds one
    function per state r:

        F_0(r) = starts[r] * C,   C the first slot's cumulative integral,
        F_j(r) = (1 + r) * cumint[e^{-sV} F_{j-1}(r-1) - e^{+sV} F_{j-1}(r+1)],

    and F_j(0) is the weighted sum of the family's depth-(j + 1) brackets.
    States below 0 never return to 0 (every path passes r = -1, where
    1 + r vanishes), and states above the number of levels left cannot
    reach it; both are dropped.

    Exactly one of ``lower``/``upper`` is infinite.  The finite end anchors
    every chain; the infinite one is cut once, for the deepest level
    ``depth``, whose tolerance every level shares.  The recursion is the
    ``step`` this feeds ``_run_levels``, the level loop of ``build_chain``.
    A state is a scalar times an unscaled chain, F = c * H, so a state
    with one input fits exactly the integrand e^{-+sV} H of one sequence's
    own chain (scaling an integrand changes how it refines where it
    underflows), and one with two inputs fits
    e^{-sV} H_1 - (c_2 / c_1) e^{+sV} H_2.  Returns one dict {r: (c, H)}
    per level j = 0 .. depth - 1.
    """
    if math.isinf(lower) == math.isinf(upper):
        raise InvalidSpec("state chains need exactly one infinite end")
    s = -1 if flip else 1
    spec = BracketSpec(kind, (-s,), lower, upper)
    weights = _weight_factory(model, spec)
    if depth > 1:
        weights += [lambda z: np.exp(-s * model.V(z)),
                    lambda z: np.exp(s * model.V(z))]
    lo, hi = _cut_span(model, spec, weights, depth, cfg)

    def step(j, level):
        nxt = {}
        for r in range(depth - j):
            down, up = level.get(r - 1), level.get(r + 1)
            if down and up:
                ratio = up[0] / down[0]

                def integrand(z, h1=down[1], h2=up[1], ratio=ratio):
                    v = model.V(z)
                    return (np.exp(-s * v) * h1(z)
                            - ratio * (np.exp(s * v) * h2(z)))
                nxt[r] = ((1 + r) * down[0], integrand)
            elif down:
                nxt[r] = ((1 + r) * down[0], lambda z, h=down[1]:
                          np.exp(-s * model.V(z)) * h(z))
            elif up:
                nxt[r] = (-(1 + r) * up[0], lambda z, h=up[1]:
                          np.exp(s * model.V(z)) * h(z))
        return nxt

    table, _ = _run_levels(
        model, cfg, weights[0],
        {r: c for r, c in starts.items() if 0 <= r < depth},
        step, depth, lo, hi, spec.right_anchored)
    return table


def chain_value(spec: BracketSpec, chain: PiecewiseChebFun) -> float:
    """The bracket's value: its chain at the open end, which is the
    truncation cut when that end is infinite."""
    if spec.right_anchored:
        return float(chain(spec.lower))
    return float(chain(chain.hi if math.isinf(spec.upper) else spec.upper))


def eval_bracket(spec: BracketSpec, model: PotentialModel,
                 cfg: QuadratureConfig = QuadratureConfig()) -> float:
    """Value of the n-fold ordered integral."""
    return chain_value(spec, build_chain(spec, model, cfg))


def cumulative_bracket(spec: BracketSpec, model: PotentialModel,
                       grid, cfg: QuadratureConfig = QuadratureConfig()) -> np.ndarray:
    """The cumulative chain evaluated at every grid point.

    For a spec with lower = -infinity the grid supplies the upper limits,
    and symmetrically for upper = +infinity.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        return np.zeros(0)
    if np.isnan(grid).any():
        raise InvalidSpec("grid points must not be NaN")
    if np.any(np.diff(grid) < 0):
        raise InvalidSpec("grid must be sorted ascending")
    anchor = float(grid[0] if spec.right_anchored else grid[-1])
    chain = build_chain(spec, model, cfg, open_anchor=anchor)
    return np.asarray(chain(grid), dtype=float)
