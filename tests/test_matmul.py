"""Differential tests of the matrix product kernels behind compose/s_compose.

`reference_product` is the generic zero-skipping loop through `sr.add` and
`sr.mul` that `matcat.compose` and `quantum.s_compose` ran before each
semiring carried its own `matmul`; every kernel must agree with it under `==`.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import catprob.matcat as mc
import catprob.quantum as qt
from catprob import semirings
from catprob.semirings import get_semiring, positive_part

SEMIRING_IDS = (
    "bool", "nat", "ratnn", "rat", "gauss-rat", "split-rat", "gf 3", "gf2 2", "gf2 5", "complex-f64",
)
SEMIRINGS = [get_semiring(s) for s in SEMIRING_IDS] + [positive_part(get_semiring("complex-f64")).ring]

_num, _den = st.integers(-(10 ** 6), 10 ** 6), st.integers(1, 10 ** 4)
_rat = st.builds(Fraction, _num, _den)
_finite = dict(allow_nan=False, allow_infinity=False)
ELEMENTS = {
    "bool": st.booleans(),
    "nat": st.integers(0, 10 ** 6),
    "ratnn": st.builds(Fraction, st.integers(0, 10 ** 6), _den),
    "rat": _rat,
    "gauss-rat": st.tuples(_rat, _rat),
    "split-rat": st.tuples(_rat, _rat),
    "gf 3": st.integers(0, 2),
    "gf2 2": st.tuples(st.integers(0, 1), st.integers(0, 1)),
    "gf2 5": st.tuples(st.integers(0, 4), st.integers(0, 4)),
    "complex-f64": st.complex_numbers(max_magnitude=1e6, **_finite),
    "real-f64": st.floats(0, 1e6, **_finite),
}

# CPython 3.12 made `sum` of floats compensated, which may change the last
# bits of a float inner product; the exact kernels are unaffected.
FLOAT_SUM_IS_LEFT_TO_RIGHT = sys.version_info < (3, 12)


def reference_product(sr, g_rows, f_rows):
    mid = len(f_rows)
    ncols = len(f_rows[0])
    live = [[k for k in range(mid) if f_rows[k][c] != sr.zero] for c in range(ncols)]
    return tuple(
        tuple(sr.sum(sr.mul(g_rows[r][k], f_rows[k][c]) for k in live[c]) for c in range(ncols))
        for r in range(len(g_rows))
    )


def assert_same_product(sr, got, want):
    if sr.exact or FLOAT_SUM_IS_LEFT_TO_RIGHT:
        assert got == want
    else:
        assert all(sr.eq(a, b) for ra, rb in zip(got, want) for a, b in zip(ra, rb))


def _matrix(entry, rows, cols):
    return st.tuples(*(st.tuples(*(entry,) * cols),) * rows)


@st.composite
def operands(draw, sr, dims):
    """(g, f) with g of shape r x m and f of shape m x c, r, m, c drawn from
    `dims`, dense or mostly structural zeros."""
    r, m, c = (draw(dims) for _ in range(3))
    entry = ELEMENTS[sr.id]
    if draw(st.booleans()):  # sparse
        entry = st.one_of(st.just(sr.zero), st.just(sr.zero), entry)
    return draw(_matrix(entry, r, m)), draw(_matrix(entry, m, c))


_BY_ID = dict(ids=lambda sr: sr.id)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compose_matches_the_reference_loop(sr, data):
    g_rows, f_rows = data.draw(operands(sr, st.integers(1, 6)))
    g = mc.Morphism(mc.obj_of_size(len(f_rows)), mc.obj_of_size(len(g_rows)), g_rows, sr)
    f = mc.Morphism(mc.obj_of_size(len(f_rows[0])), mc.obj_of_size(len(f_rows)), f_rows, sr)
    assert_same_product(sr, mc.compose(g, f).entries, reference_product(sr, g_rows, f_rows))


_WIRES = {1: (), 4: (qt.QWire(2),)}


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_s_compose_matches_the_reference_loop(sr, data):
    g_rows, f_rows = data.draw(operands(sr, st.sampled_from(sorted(_WIRES))))
    dom, mid, cod = _WIRES[len(f_rows[0])], _WIRES[len(f_rows)], _WIRES[len(g_rows)]
    g = qt.Superoperator(mid, cod, g_rows, sr)
    f = qt.Superoperator(dom, mid, f_rows, sr)
    assert_same_product(sr, qt.s_compose(g, f).entries, reference_product(sr, g_rows, f_rows))


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@pytest.mark.parametrize("shape", [(1, 5, 1), (4, 5, 1), (1, 5, 4), (1, 1, 1)])
def test_states_and_effects_match_the_reference_loop(sr, shape):
    rng = random.Random(str(shape))
    r, m, c = shape
    g_rows = tuple(tuple(sr.sample(rng) for _ in range(m)) for _ in range(r))
    f_rows = tuple(tuple(sr.sample(rng) for _ in range(c)) for _ in range(m))
    assert_same_product(sr, sr.matmul(g_rows, f_rows), reference_product(sr, g_rows, f_rows))


# Products of fewer multiply-adds than this skip the scan for zero lines.
SCANNED = semirings._MIN_SCANNED_PRODUCT


@st.composite
def operands_with_zero_lines(draw, sr):
    """Dense (g, f) with some rows of g, rows of f and columns of f forced to
    zero, each of r, m, c at least 4, so that r * m * c >= SCANNED."""
    g_rows, f_rows = draw(operands(sr, st.integers(4, 7)))
    r, m, c = len(g_rows), len(f_rows), len(f_rows[0])
    dead = lambda n: draw(st.sets(st.integers(0, n - 1), max_size=n))
    g_dead, f_dead, col_dead = dead(r), dead(m), dead(c)
    g_rows = tuple((sr.zero,) * m if i in g_dead else row for i, row in enumerate(g_rows))
    f_rows = tuple(
        (sr.zero,) * c if t in f_dead else tuple(sr.zero if j in col_dead else x for j, x in enumerate(row))
        for t, row in enumerate(f_rows)
    )
    return g_rows, f_rows


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_zero_rows_and_columns_are_skipped_exactly(sr, data):
    g_rows, f_rows = data.draw(operands_with_zero_lines(sr))
    assert len(g_rows) * len(f_rows) * len(f_rows[0]) >= SCANNED
    got = sr.matmul(g_rows, f_rows)
    assert len(got) == len(g_rows) and all(len(row) == len(f_rows[0]) for row in got)
    assert_same_product(sr, got, reference_product(sr, g_rows, f_rows))


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@pytest.mark.parametrize("zero_side", ["g", "f"])
def test_an_all_zero_operand_gives_the_zero_matrix(sr, zero_side):
    rng = random.Random(zero_side)
    r, m, c = 4, 4, 4
    assert r * m * c >= SCANNED
    g_rows = tuple(tuple(sr.sample(rng) for _ in range(m)) for _ in range(r))
    f_rows = tuple(tuple(sr.sample(rng) for _ in range(c)) for _ in range(m))
    if zero_side == "g":
        g_rows = ((sr.zero,) * m,) * r
    else:
        f_rows = ((sr.zero,) * c,) * m
    got = sr.matmul(g_rows, f_rows)
    assert got == ((sr.zero,) * c,) * r == reference_product(sr, g_rows, f_rows)
