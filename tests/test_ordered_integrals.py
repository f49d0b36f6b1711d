"""Identities of ordered-simplex integrals that hold for any potential.

For a sign word w = (s_1..s_n) and an interval [a, b],

    I(w; a, b) = integral over a <= z_1 <= ... <= z_n <= b of
                 prod_j exp(s_j V(z_j)).

Three facts about iterated integrals check the brackets without reference
to how they are computed:

* shuffle product (Chen 1957): I(u) I(v) is the sum of I(w) over the
  shuffles w of u and v, counted with multiplicity;
* Chen's split identity: for a < c < b,
  I(w; a, b) = sum_k I(w[:k]; a, c) I(w[k:]; c, b), with I(()) = 1;
* for V = 0 every word gives the simplex volume (b - a)^n / n!.

Every integrand is positive, so each side is a sum of positive terms and a
relative tolerance is meaningful.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowkgreen.brackets import BracketKind, BracketSpec, eval_bracket
from lowkgreen.potential import catalog

MODELS = ("parabolic", "logcosh", "exponential", "sqrtwell", "free")
REL = 1e-12

PROPERTY = settings(derandomize=True, deadline=None, max_examples=20)

signs = st.sampled_from((-1, 1))
words = st.lists(signs, min_size=1, max_size=3).map(tuple)
# (first word, second word) with at most three letters between them
word_pairs = st.integers(1, 2).flatmap(
    lambda n: st.tuples(st.lists(signs, min_size=n, max_size=n).map(tuple),
                        st.lists(signs, min_size=1, max_size=3 - n).map(tuple)))
lowers = st.floats(-1.5, 1.0)
widths = st.floats(0.05, 1.5)
fractions = st.floats(0.1, 0.9)


def bracket(model, word, a, b):
    if not word:
        return 1.0
    return eval_bracket(BracketSpec(BracketKind.PLAIN, word, a, b), model)


def shuffles(u, v):
    """The shuffles of u and v, with multiplicity."""
    if not u or not v:
        return Counter([u + v])
    out = Counter()
    for w, m in shuffles(u[1:], v).items():
        out[u[:1] + w] += m
    for w, m in shuffles(u, v[1:]).items():
        out[v[:1] + w] += m
    return out


def close(x, y):
    return abs(x - y) <= REL * max(abs(x), abs(y))


def test_shuffles_count():
    assert shuffles((1,), (-1, -1)) == Counter({(1, -1, -1): 1, (-1, 1, -1): 1,
                                                (-1, -1, 1): 1})
    assert sum(shuffles((1, 1), (-1,)).values()) == 3


@pytest.mark.parametrize("name", MODELS)
@PROPERTY
@given(pair=word_pairs, a=lowers, width=widths)
def test_shuffle_product(name, pair, a, width):
    model = catalog(name)
    u, v = pair
    b = a + width
    lhs = bracket(model, u, a, b) * bracket(model, v, a, b)
    rhs = sum(m * bracket(model, w, a, b) for w, m in shuffles(u, v).items())
    assert close(lhs, rhs), (u, v, a, b, lhs, rhs)


@pytest.mark.parametrize("name", MODELS)
@PROPERTY
@given(word=words, a=lowers, width=widths, frac=fractions)
def test_chen_split(name, word, a, width, frac):
    model = catalog(name)
    b = a + width
    c = a + frac * width
    whole = bracket(model, word, a, b)
    split = sum(bracket(model, word[:k], a, c) * bracket(model, word[k:], c, b)
                for k in range(len(word) + 1))
    assert close(whole, split), (word, a, c, b, whole, split)


@PROPERTY
@given(word=words, a=lowers, width=widths)
def test_constant_potential(word, a, width):
    b = a + width
    n = len(word)
    got = bracket(catalog("free"), word, a, b)
    assert close(got, (b - a) ** n / math.factorial(n)), (word, a, b, got)
