"""Potential models with declared endpoint asymptotics.

A model carries evaluatable V, f = -V'/2 and the Schrodinger potential
V_S = f^2 + f', plus declared metadata about how the relevant weight decays
toward each spatial infinity.  The metadata drives the six-way case
classification, the maximum valid expansion order, and the truncation of
semi-infinite integrals.  Decay descriptors are declared, never inferred:
no finite sampling can certify a tail, so a log-log probe only warns.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import BadParameter, InvalidSpec, MissingDecayMetadata, UnknownPotential


class EndpointKind(enum.Enum):
    FINITE_LIMIT = "finite"
    PLUS_INFINITY = "+inf"
    MINUS_INFINITY = "-inf"


@dataclass(frozen=True)
class Decay:
    """How the endpoint weight decays.

    For a FINITE_LIMIT endpoint the weight is V - limit; for PLUS_INFINITY
    it is e^{-V}; for MINUS_INFINITY it is e^{+V}.  ``power`` means the
    weight falls like |z|**(-alpha); ``log_growth`` means V grows like
    alpha*log|z| so the same power law applies to the exponential weight.
    """

    kind: str  # "exponential" | "power" | "log_growth"
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("exponential", "power", "log_growth"):
            raise BadParameter(f"unknown decay kind {self.kind!r}")
        if self.kind != "exponential":
            if self.alpha is None or self.alpha <= 0:
                raise BadParameter("power/log decay requires alpha > 0")

    @property
    def is_power_like(self) -> bool:
        return self.kind in ("power", "log_growth")

    def weighted_class_max(self) -> float:
        """Largest n with integral (1+|z|^n)*weight finite; may be -1 or inf."""
        if self.kind == "exponential":
            return math.inf
        # |z|^n * |z|^(-alpha) integrable iff n < alpha - 1
        return math.ceil(self.alpha - 1) - 1


EXPONENTIAL = Decay("exponential")


def power_law(alpha: float) -> Decay:
    return Decay("power", float(alpha))


def log_growth(alpha: float) -> Decay:
    return Decay("log_growth", float(alpha))


@dataclass(frozen=True)
class EndpointClass:
    kind: EndpointKind
    decay: Decay
    limit_value: Optional[float] = None

    def __post_init__(self):
        finite = self.kind == EndpointKind.FINITE_LIMIT
        if finite and self.limit_value is None:
            raise BadParameter("finite endpoint requires limit_value")
        if not finite and self.limit_value is not None:
            raise BadParameter("limit_value only makes sense for a finite endpoint")


@dataclass(frozen=True)
class Discontinuity:
    """A jump of f at x0; the corresponding V_S delta has weight delta_weight."""

    x0: float
    delta_weight: float = 0.0


@dataclass(frozen=True)
class PotentialModel:
    id: str
    left: Optional[EndpointClass]
    right: Optional[EndpointClass]
    eval_V: Optional[Callable] = None
    eval_f: Optional[Callable] = None
    eval_VS: Optional[Callable] = None
    discontinuities: tuple = ()
    params: dict = field(default_factory=dict)
    # V_S limits toward -inf/+inf (finite value or math.inf), used by the oracle
    vs_limit_left: float = 0.0
    vs_limit_right: float = 0.0
    # V_S vanishes identically below/above these points (None if it does not)
    vs_zero_below: Optional[float] = None
    vs_zero_above: Optional[float] = None
    vs_defined_only: bool = False

    def V(self, z):
        if self.eval_V is None:
            raise InvalidSpec(f"model {self.id!r} defines V_S only")
        return self.eval_V(np.asarray(z, dtype=float))

    def f(self, z):
        if self.eval_f is None:
            raise InvalidSpec(f"model {self.id!r} defines V_S only")
        return self.eval_f(np.asarray(z, dtype=float))

    def VS(self, z):
        if self.eval_VS is None:
            raise InvalidSpec(f"model {self.id!r} does not evaluate V_S")
        return self.eval_VS(np.asarray(z, dtype=float))

    @property
    def breakpoints(self):
        return tuple(d.x0 for d in self.discontinuities)

    def reflected(self) -> "PotentialModel":
        """The model under z -> -z, endpoint roles swapped."""
        ev = self.eval_V
        ef = self.eval_f
        evs = self.eval_VS
        return replace(
            self,
            id=self.id + "~reflected",
            left=self.right,
            right=self.left,
            eval_V=None if ev is None else (lambda z, _g=ev: _g(-np.asarray(z, float))),
            eval_f=None if ef is None else (lambda z, _g=ef: -_g(-np.asarray(z, float))),
            eval_VS=None if evs is None else (lambda z, _g=evs: _g(-np.asarray(z, float))),
            discontinuities=tuple(
                Discontinuity(-d.x0, -d.delta_weight)
                for d in reversed(self.discontinuities)),
            vs_limit_left=self.vs_limit_right,
            vs_limit_right=self.vs_limit_left,
            vs_zero_below=None if self.vs_zero_above is None else -self.vs_zero_above,
            vs_zero_above=None if self.vs_zero_below is None else -self.vs_zero_below,
        )


class CaseTag(enum.Enum):
    I = "i"
    II = "ii"
    III = "iii"
    IV = "iv"
    V = "v"
    VI = "vi"


_CANONICAL = {
    (EndpointKind.FINITE_LIMIT, EndpointKind.FINITE_LIMIT): CaseTag.I,
    (EndpointKind.FINITE_LIMIT, EndpointKind.PLUS_INFINITY): CaseTag.II,
    (EndpointKind.FINITE_LIMIT, EndpointKind.MINUS_INFINITY): CaseTag.III,
    (EndpointKind.PLUS_INFINITY, EndpointKind.PLUS_INFINITY): CaseTag.IV,
    (EndpointKind.PLUS_INFINITY, EndpointKind.MINUS_INFINITY): CaseTag.V,
    (EndpointKind.MINUS_INFINITY, EndpointKind.MINUS_INFINITY): CaseTag.VI,
}


def check_positions(x: float, y: float) -> None:
    """Raise InvalidSpec unless both positions are finite numbers."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidSpec(f"positions must be finite (x={x}, y={y})")


def classification(model: PotentialModel):
    """(CaseTag, reflected) for the model's endpoint kinds.

    Three of the nine kind combinations are mirror images of canonical
    cases and map through the reflection z -> -z.
    """
    if model.left is None or model.right is None:
        raise MissingDecayMetadata(
            f"model {model.id!r} has no endpoint classes; use the generic route")
    key = (model.left.kind, model.right.kind)
    if key in _CANONICAL:
        return _CANONICAL[key], False
    mirror = (key[1], key[0])
    if mirror in _CANONICAL:
        return _CANONICAL[mirror], True
    raise AssertionError("unreachable")


def classify_case(model: PotentialModel) -> CaseTag:
    return classification(model)[0]


def max_valid_order(model: PotentialModel):
    """Largest expansion order N for which the truncation is a valid
    asymptotic approximation, from the declared decay metadata.

    Returns an integer, or math.inf when the declared decays put the weight
    in every integrability class.
    """
    case, reflected = classification(model)
    m = model.reflected() if reflected else model
    if m.left is None or m.left.decay is None or m.right is None or m.right.decay is None:
        raise MissingDecayMetadata(f"model {m.id!r} lacks decay descriptors")
    nl = m.left.decay.weighted_class_max()
    nr = m.right.decay.weighted_class_max()
    if case == CaseTag.I:
        n = min(nl, nr)
    elif case == CaseTag.II:
        n = min(nl, nr)
    elif case == CaseTag.III:
        n = min(nl + 2, nr)
    elif case == CaseTag.IV:
        n = min(nl, nr) - 2
    elif case == CaseTag.V:
        n = min(nl + 2, nr)
    else:  # VI
        n = min(nl, nr)
    return n if n == math.inf else int(n)


# -- catalog -------------------------------------------------------------------

def _free():
    zero = lambda z: np.zeros_like(np.asarray(z, dtype=float))
    end = lambda: EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, 0.0)
    return PotentialModel(
        id="free", left=end(), right=end(),
        eval_V=zero, eval_f=zero, eval_VS=zero,
        vs_zero_below=math.inf, vs_zero_above=-math.inf,
    )


def _parabolic():
    return PotentialModel(
        id="parabolic",
        left=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        right=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        eval_V=lambda z: z ** 2,
        eval_f=lambda z: -z,
        eval_VS=lambda z: z ** 2 - 1.0,
        vs_limit_left=math.inf, vs_limit_right=math.inf,
    )


def _logcosh():
    def V(z):
        a = np.abs(z)
        return 2.0 * (a + np.log1p(np.exp(-2.0 * a)) - np.log(2.0))

    def VS(z):
        sech2 = 1.0 / np.cosh(np.minimum(np.abs(z), 350.0)) ** 2
        return 1.0 - 2.0 * sech2

    return PotentialModel(
        id="logcosh",
        left=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        right=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        eval_V=V,
        eval_f=lambda z: -np.tanh(z),
        eval_VS=VS,
        vs_limit_left=1.0, vs_limit_right=1.0,
    )


def _exponential():
    return PotentialModel(
        id="exponential",
        left=EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, 0.0),
        right=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        eval_V=lambda z: np.exp(z),
        eval_f=lambda z: -0.5 * np.exp(z),
        eval_VS=lambda z: 0.25 * np.exp(2.0 * z) - 0.5 * np.exp(z),
        vs_limit_left=0.0, vs_limit_right=math.inf,
    )


def _sqrtwell():
    def V(z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0, np.sqrt(1.0 - np.minimum(z, 0.0)) - 1.0,
                        1.0 - np.sqrt(1.0 + np.maximum(z, 0.0)))

    def f(z):
        z = np.asarray(z, dtype=float)
        return np.where(z < 0, 0.25 / np.sqrt(1.0 - np.minimum(z, 0.0)),
                        0.25 / np.sqrt(1.0 + np.maximum(z, 0.0)))

    def VS(z):
        z = np.asarray(z, dtype=float)
        um = 1.0 - np.minimum(z, 0.0)
        up = 1.0 + np.maximum(z, 0.0)
        left = 1.0 / (16.0 * um) + 1.0 / (8.0 * um ** 1.5)
        right = 1.0 / (16.0 * up) - 1.0 / (8.0 * up ** 1.5)
        return np.where(z < 0, left, right)

    return PotentialModel(
        id="sqrtwell",
        left=EndpointClass(EndpointKind.PLUS_INFINITY, EXPONENTIAL),
        right=EndpointClass(EndpointKind.MINUS_INFINITY, EXPONENTIAL),
        eval_V=V, eval_f=f, eval_VS=VS,
        discontinuities=(Discontinuity(0.0, 0.0),),
        vs_limit_left=0.0, vs_limit_right=0.0,
    )


def _logstep(alpha: float):
    if alpha <= 0:
        raise BadParameter("logstep requires alpha > 0")

    def V(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 1.0, alpha * np.log(np.maximum(z, 1.0)), 0.0)

    def f(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 1.0, -0.5 * alpha / np.maximum(z, 1.0), 0.0)

    def VS(z):
        z = np.asarray(z, dtype=float)
        return np.where(z > 1.0,
                        0.25 * alpha * (alpha + 2.0) / np.maximum(z, 1.0) ** 2, 0.0)

    return PotentialModel(
        id="logstep",
        left=EndpointClass(EndpointKind.FINITE_LIMIT, EXPONENTIAL, 0.0),
        right=EndpointClass(EndpointKind.PLUS_INFINITY, power_law(alpha)),
        eval_V=V, eval_f=f, eval_VS=VS,
        discontinuities=(Discontinuity(1.0, -0.5 * alpha),),
        params={"alpha": alpha},
        vs_limit_left=0.0, vs_limit_right=0.0,
        vs_zero_below=1.0,
    )


def _barrier(a: float):
    if a <= 0:
        raise BadParameter("barrier requires a > 0")

    def VS(z):
        z = np.asarray(z, dtype=float)
        return np.where(np.abs(z) < 1.0, a * a, 0.0)

    return PotentialModel(
        id="barrier",
        left=None, right=None,
        eval_VS=VS,
        discontinuities=(Discontinuity(-1.0, 0.0), Discontinuity(1.0, 0.0)),
        params={"a": a},
        vs_limit_left=0.0, vs_limit_right=0.0,
        vs_zero_below=-1.0, vs_zero_above=1.0,
        vs_defined_only=True,
    )


_CATALOG = {
    "free": (_free, ()),
    "parabolic": (_parabolic, ()),
    "logcosh": (_logcosh, ()),
    "exponential": (_exponential, ()),
    "sqrtwell": (_sqrtwell, ()),
    "logstep": (_logstep, ("alpha",)),
    "barrier": (_barrier, ("a",)),
}


def catalog_names():
    return tuple(_CATALOG)


def catalog(name: str, **params) -> PotentialModel:
    """Build a named model; extra parameters are rejected."""
    if name not in _CATALOG:
        raise UnknownPotential(
            f"unknown potential {name!r}; choose from {', '.join(_CATALOG)}")
    builder, wanted = _CATALOG[name]
    unknown = set(params) - set(wanted)
    if unknown:
        raise BadParameter(f"{name} does not take parameters {sorted(unknown)}")
    args = []
    for p in wanted:
        if p not in params:
            raise BadParameter(f"{name} requires parameter {p!r}")
        args.append(float(params[p]))
    return builder(*args)


def custom_model(name, eval_V, eval_f, left, right, eval_VS=None,
                 discontinuities=(), vs_limit_left=0.0, vs_limit_right=0.0,
                 **extra) -> PotentialModel:
    """Entry point for user potentials; endpoint metadata is mandatory."""
    if left is None or right is None:
        raise MissingDecayMetadata("custom models must declare both endpoints")
    return PotentialModel(
        id=name, left=left, right=right, eval_V=eval_V, eval_f=eval_f,
        eval_VS=eval_VS, discontinuities=tuple(discontinuities),
        vs_limit_left=vs_limit_left, vs_limit_right=vs_limit_right, **extra)


def tail_probe(model: PotentialModel, side: str, zs=(1e2, 1e3, 1e4)):
    """Log-log slope of the declared endpoint weight at large |z|.

    Returns the fitted slope, or None when the weight underflows (which is
    consistent with exponential-or-faster decay).  Only a sanity probe: it
    warns on gross mismatch with the declared descriptor and never
    overrides it.
    """
    ep = model.left if side == "left" else model.right
    if ep is None:
        return None
    sgn = -1.0 if side == "left" else 1.0
    z = sgn * np.asarray(zs, dtype=float)
    with np.errstate(over="ignore", under="ignore"):
        v = model.V(z)
        if ep.kind == EndpointKind.FINITE_LIMIT:
            w = np.abs(v - ep.limit_value)
        elif ep.kind == EndpointKind.PLUS_INFINITY:
            w = np.exp(-v)
        else:
            w = np.exp(v)
    if np.any(w <= 0.0) or np.any(~np.isfinite(w)):
        return None
    slope = np.polyfit(np.log(np.abs(z)), np.log(w), 1)[0]
    if ep.decay.is_power_like and abs(-slope - ep.decay.alpha) > 0.3 * ep.decay.alpha:
        warnings.warn(
            f"{model.id}/{side}: declared power alpha={ep.decay.alpha} but tail "
            f"slope is {-slope:.3g}", stacklevel=2)
    if ep.decay.kind == "exponential" and slope > -8.0:
        warnings.warn(
            f"{model.id}/{side}: declared exponential decay but tail slope is "
            f"only {slope:.3g}", stacklevel=2)
    return float(slope)
