"""The classical theory Mat(R): structure, environment, operational helpers."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import catprob.matcat as mc
from catprob.semirings import ConditioningError, get_semiring

RATNN = get_semiring("ratnn")
NAT = get_semiring("nat")


def M(rows, dom, cod, sr=RATNN):
    return mc.morphism(sr, dom, cod, rows)


X2 = mc.obj_of_size(2, "x")
X3 = mc.obj_of_size(3, "x")


def test_objects_are_nonempty_and_duplicate_free():
    with pytest.raises(mc.ShapeError):
        mc.Obj(())
    with pytest.raises(mc.ShapeError):
        mc.obj("a", "a")


def test_unit_is_strict():
    assert mc.obj_tensor(mc.UNIT, X2) == X2
    assert mc.obj_tensor(X2, mc.UNIT) == X2
    assert mc.obj_tensor(mc.obj_tensor(X2, X3), X2) == mc.obj_tensor(X2, mc.obj_tensor(X3, X2))


def test_equal_morphisms_from_separate_lookups_compare_equal():
    f = mc.identity(get_semiring("ratnn"), X3)
    g = mc.identity(get_semiring("ratnn"), X3)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1


def test_semirings_at_different_tolerances_do_not_mix():
    a = get_semiring("complex-f64", tolerance=1e-9)
    b = get_semiring("complex-f64", tolerance=1e-3)
    assert a is not b
    assert mc.identity(a, X2) != mc.identity(b, X2)
    with pytest.raises(mc.ShapeError, match="semiring mismatch"):
        mc.compose(mc.identity(a, X2), mc.identity(b, X2))
    with pytest.raises(mc.ShapeError, match="semiring mismatch"):
        mc.tensor(mc.identity(a, X2), mc.identity(b, X2))
    with pytest.raises(mc.ShapeError) as err:
        mc.compose(mc.identity(a, X2), mc.identity(b, X2))
    assert str(err.value) == (
        "semiring mismatch: complex-f64 (tolerance 1e-09) vs complex-f64 (tolerance 0.001)"
    )


def test_matrix_product():
    f = M([[1], [3]], mc.UNIT, X2, NAT)
    g = M([[1, 2], [0, 1]], X2, X2, NAT)
    assert mc.compose(g, f).entries == ((7,), (3,))


def test_kronecker_first_factor_major():
    a = M([[0, 1]], X2, mc.UNIT, NAT)
    b = M([[1, 0]], X2, mc.UNIT, NAT)
    t = mc.tensor(a, b)
    # columns ordered (x0x0, x0x1, x1x0, x1x1)
    assert t.entries == ((0, 0, 1, 0),)


def test_resolution_of_identity():
    parts = [
        mc.compose(mc.delta_state(RATNN, X3, lab), mc.point_effect(RATNN, X3, lab))
        for lab in X3.labels
    ]
    assert mc.equal(mc.msum(parts), mc.identity(RATNN, X3))


def test_discard_resolution_and_tensor():
    assert mc.equal(
        mc.discard(RATNN, X3),
        mc.msum([mc.point_effect(RATNN, X3, lab) for lab in X3.labels]),
    )
    assert mc.equal(
        mc.discard(RATNN, mc.obj_tensor(X2, X3)),
        mc.tensor(mc.discard(RATNN, X2), mc.discard(RATNN, X3)),
    )


def test_copy_counit():
    cp = mc.copy_map(RATNN, X2)
    both = mc.compose(mc.tensor(mc.discard(RATNN, X2), mc.identity(RATNN, X2)), cp)
    assert mc.equal(mc.Morphism(X2, X2, both.entries, RATNN), mc.identity(RATNN, X2))


def test_swap_is_self_inverse_up_to_sides():
    sw = mc.swap(RATNN, X2, X3)
    ws = mc.swap(RATNN, X3, X2)
    assert mc.equal(mc.compose(ws, sw), mc.identity(RATNN, mc.obj_tensor(X2, X3)))


def test_is_normalised_matches_column_sums():
    f = M([[F(1, 2), 0], [F(1, 2), 1]], X2, X2)
    assert mc.is_normalised(f)
    g = M([[F(1, 2), 0], [F(1, 2), F(1, 2)]], X2, X2)
    assert not mc.is_normalised(g)


def test_deterministic_embed_partial():
    f = mc.deterministic_embed(RATNN, X3, X2, lambda lab: ("x0",) if lab == ("x0",) else None)
    assert mc.is_normalised(f) is False
    g = mc.deterministic_embed(RATNN, X3, X2, lambda lab: "x0" if lab != ("x2",) else "x1")
    assert mc.is_normalised(g)
    with pytest.raises(mc.ShapeError):
        mc.deterministic_embed(RATNN, X3, X2, lambda lab: "nope")


def test_test_against_and_output_probability():
    k, y = mc.obj_of_size(2, "k"), mc.obj_of_size(2, "y")
    rho = mc.state(RATNN, mc.obj_tensor(k, y), [F(1, 8), F(1, 8), F(1, 4), F(1, 2)])
    p0 = mc.output_probability(rho, k, y, "y0")
    p1 = mc.output_probability(rho, k, y, "y1")
    assert (p0, p1) == (F(3, 8), F(5, 8))
    fy = mc.test_against(rho, k, y, "y0")
    assert fy.cod == k and fy.entries == ((F(1, 8),), (F(1, 4),))


def test_condition_normalises_and_requires_invertibility():
    k, y = mc.obj_of_size(2, "k"), mc.obj_of_size(2, "y")
    rho = mc.state(RATNN, mc.obj_tensor(k, y), [F(1, 8), F(1, 8), F(1, 4), F(1, 2)])
    c = mc.condition(rho, k, y, "y0")
    assert mc.is_normalised(c)
    assert c.entries == ((F(1, 3),), (F(2, 3),))
    rho_nat = mc.state(NAT, mc.obj_tensor(k, y), [1, 1, 2, 3])
    with pytest.raises(ConditioningError):
        mc.condition(rho_nat, k, y, "y0")  # 3 has no inverse in nat


def test_restrict_is_sum_of_unnormalised_conditionals():
    k, y = mc.obj_of_size(2, "k"), mc.obj_of_size(2, "y")
    rho = mc.state(RATNN, mc.obj_tensor(k, y), [F(1, 8), F(1, 8), F(1, 4), F(1, 2)])
    red = mc.restrict(rho, k, y)
    parts = mc.msum([mc.test_against(rho, k, y, lab) for lab in ("y0", "y1")])
    assert mc.equal(red, parts)


def test_fix_control_and_convex_combination():
    h, x, k = mc.obj_of_size(2, "h"), mc.obj_of_size(2, "c"), mc.obj_of_size(2, "k")
    rng = random.Random(0)
    f = mc.random_morphism(RATNN, mc.obj_tensor(h, x), k, rng)
    p = mc.state(RATNN, x, [F(1, 3), F(2, 3)])
    applied = mc.control_apply(f, h, x, p)
    branches = [mc.fix_control(f, h, x, lab) for lab in x.labels]
    combo = mc.madd(mc.scale(F(1, 3), branches[0]), mc.scale(F(2, 3), branches[1]))
    assert mc.equal(applied, combo)


def test_coarse_grain_groups_outcomes():
    k, x, z = mc.obj_of_size(2, "k"), mc.obj_of_size(3, "o"), mc.obj_of_size(2, "z")
    rng = random.Random(1)
    f = mc.random_morphism(RATNN, k, mc.obj_tensor(k, x), rng)
    g = mc.coarse_grain(f, k, x, lambda lab: "z0" if lab != ("o2",) else "z1", z)
    lhs = mc.test_against(g, k, z, "z0")
    rhs = mc.madd(mc.test_against(f, k, x, "o0"), mc.test_against(f, k, x, "o1"))
    assert mc.equal(lhs, rhs)


def test_preparation_test_recovers_the_distribution():
    x, h = mc.obj_of_size(3, "c"), mc.obj_of_size(2, "h")
    rng = random.Random(2)
    prep = mc.random_normalised(RATNN, x, h, rng)
    q = mc.state(RATNN, x, [F(1, 3), F(1, 3), F(1, 3)])
    sigma = mc.preparation_test(prep, x, q)
    for lab in x.labels:
        assert mc.output_probability(sigma, h, x, lab) == F(1, 3)
    bad = mc.scale(F(1, 2), prep)
    with pytest.raises(mc.ShapeError):
        mc.preparation_test(bad, x, q)


def test_morphism_coerces_plain_literals():
    f = mc.morphism(RATNN, X2, X2, [[0, 1], [1, 0]])
    assert f.entries == ((F(0), F(1)), (F(1), F(0)))
    g = mc.morphism(get_semiring("gauss-rat"), X2, X2, [[1, 0], [0, F(1, 2)]])
    assert g.entries[1][1] == (F(1, 2), F(0))
    with pytest.raises(mc.ShapeError):
        mc.morphism(RATNN, X2, X2, [[F(-1), 0], [0, 0]])


def test_first_difference_reports_position():
    f = M([[F(1, 2), 0], [F(1, 2), 1]], X2, X2)
    g = M([[F(1, 2), 0], [F(1, 2), F(1, 2)]], X2, X2)
    assert mc.first_difference(f, g) == (1, 1, F(1), F(1, 2))
    assert mc.first_difference(f, f) is None


@st.composite
def small_matrices(draw, dom_size, cod_size):
    vals = st.fractions(min_value=0, max_value=3, max_denominator=6)
    return [[draw(vals) for _ in range(dom_size)] for _ in range(cod_size)]


@settings(max_examples=40, deadline=None)
@given(small_matrices(2, 3), small_matrices(3, 2), small_matrices(2, 3))
def test_bilinearity_hypothesis(a, b, c):
    f = M(a, X2, X3)
    g = M(b, X3, X2)
    h = M(c, X2, X3)
    assert mc.equal(
        mc.compose(g, mc.madd(f, h)),
        mc.madd(mc.compose(g, f), mc.compose(g, h)),
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 9))
def test_random_normalised_is_stochastic(seed):
    rng = random.Random(seed)
    sid = rng.choice(["ratnn", "bool", "gf 3", "nat", "gauss-rat"])
    sr = get_semiring(sid)
    f = mc.random_normalised(sr, X3, X2, rng)
    assert mc.is_normalised(f)
