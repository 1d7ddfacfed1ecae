"""Semiring instances: laws, literals, positivity, scalar sub-semirings."""

import pathlib
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import catprob
from catprob.semirings import (
    ConditioningError,
    SemiringError,
    axioms_check,
    get_semiring,
    is_positive,
    positive_part,
    positivity_witness_search,
    scalar_subsemiring,
    verify_positive_part,
)

EXACT_IDS = ["bool", "nat", "ratnn", "rat", "gauss-rat", "split-rat", "gf 3", "gf2 2"]


@pytest.mark.parametrize("sid", EXACT_IDS + ["complex-f64", "gf 5", "gf2 3"])
def test_axioms_hold(sid):
    sr = get_semiring(sid)
    assert axioms_check(sr, budget=80, seed=3) == []


@pytest.mark.parametrize("sid", EXACT_IDS + ["complex-f64", "gf2 3"])
def test_get_semiring_returns_one_instance_per_id(sid):
    sr = get_semiring(sid)
    assert get_semiring(sid) is sr
    assert get_semiring(" " + sid.replace(" ", "   ") + " ") is sr


def test_instances_differ_by_id_and_tolerance():
    assert get_semiring("gf 3") is get_semiring("gf 03")
    assert get_semiring("gf 3") is not get_semiring("gf2 3")
    assert get_semiring("ratnn") is get_semiring("ratnn", tolerance=1e-3)  # exact: no tolerance
    loose = get_semiring("complex-f64", tolerance=1e-6)
    assert loose is not get_semiring("complex-f64")
    assert loose is get_semiring("complex-f64", tolerance=1e-6)
    assert positive_part(loose).ring is positive_part(loose).ring
    assert positive_part(loose).ring is not positive_part(get_semiring("complex-f64")).ring


def test_large_finite_carriers_are_lazy():
    start = time.perf_counter()
    sr = get_semiring("gf2 1000003")
    assert time.perf_counter() - start < 1.0
    rep = is_positive(sr)
    assert rep.positive is False
    assert len(rep.witness) == 1000003 and set(rep.witness) == {sr.one}
    small = get_semiring("gf2 3")
    assert list(small.elements) == list(small.elements) == [(a, b) for a in range(3) for b in range(3)]
    assert list(get_semiring("gf 5").elements) == [0, 1, 2, 3, 4]


def test_no_module_but_semirings_branches_on_a_semiring_id():
    """Which semiring is which is known only to `semirings`: elsewhere an id
    may be printed, never compared or parsed."""
    src = pathlib.Path(catprob.__file__).parent
    branch = re.compile(r"\.id\s*(==|!=|\bin\b|\bnot\s+in\b)|\.id\.(startswith|split)\b")
    found = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        if path.name != "semirings.py"
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if branch.search(line)
    ]
    assert found == []


def test_unknown_id_rejected():
    with pytest.raises(SemiringError):
        get_semiring("tropical")
    with pytest.raises(SemiringError):
        get_semiring("gf 4")  # not prime


def test_rational_literals():
    sr = get_semiring("ratnn")
    assert sr.parse("3/4") == F(3, 4)
    assert sr.fmt(F(3, 4)) == "3/4"
    with pytest.raises(SemiringError):
        sr.parse("0.5")


def test_gauss_rat_literals_and_star():
    sr = get_semiring("gauss-rat")
    assert sr.parse("1/2+3i") == (F(1, 2), F(3))
    assert sr.parse("-i") == (F(0), F(-1))
    assert sr.parse("2") == (F(2), F(0))
    x = sr.parse("3/5+4/5i")
    # i^2 = -1 and x* x is the squared modulus
    assert sr.mul(sr.star(x), x) == (F(1), F(0))
    assert sr.parse(sr.fmt(x)) == x


def test_split_rat_squares_can_be_negative():
    sr = get_semiring("split-rat")
    j = sr.parse("j")
    assert sr.mul(j, j) == (F(1), F(0))  # j^2 = +1
    x = (F(0), F(3, 4))
    assert sr.mul(sr.star(x), x) == (F(-9, 16), F(0))


def test_gf2_frobenius_is_an_involution_fixing_the_base_field():
    for p in (2, 3, 5):
        sr = get_semiring(f"gf2 {p}")
        for x in sr.elements:
            assert sr.star(sr.star(x)) == x
        for a in range(p):
            assert sr.star((a, 0)) == (a, 0)
        # the norm x* x always lands in the base field
        for x in sr.elements:
            assert sr.mul(sr.star(x), x)[1] == 0


def test_gf2_literals():
    sr = get_semiring("gf2 3")
    assert sr.parse("1+2t") == (1, 2)
    assert sr.parse("t") == (0, 1)
    assert sr.fmt((1, 2)) == "1+2t"


def test_complex_f64_tolerance_equality():
    sr = get_semiring("complex-f64", tolerance=1e-9)
    assert sr.eq(1.0 + 0j, 1.0 + 1e-12j)
    assert not sr.eq(1.0 + 0j, 1.0 + 1e-6j)
    assert not sr.exact


def test_inverses():
    sr = get_semiring("gf 5")
    for a in range(1, 5):
        assert sr.mul(a, sr.inv(a)) == 1
    sr2 = get_semiring("gf2 2")
    for x in sr2.elements:
        if x != (0, 0):
            assert sr2.mul(x, sr2.inv(x)) == sr2.one
    with pytest.raises(ConditioningError):
        sr2.inv((0, 0))


@pytest.mark.parametrize("sid,verdict", [
    ("bool", True), ("nat", True), ("ratnn", True),
    ("rat", False), ("gauss-rat", False), ("split-rat", False),
    ("gf 3", False), ("gf2 2", False),
])
def test_positivity_verdicts(sid, verdict):
    rep = is_positive(get_semiring(sid))
    assert rep.positive is verdict
    if not verdict:
        sr = get_semiring(sid)
        assert any(not sr.eq(x, sr.zero) for x in rep.witness)
        assert sr.eq(sr.sum(rep.witness), sr.zero)


def test_brute_force_witness_search_agrees_on_small_fields():
    for p in (2, 3):
        sr = get_semiring(f"gf {p}")
        fam = positivity_witness_search(sr, max_size=p)
        assert fam is not None
        assert sr.sum(fam) == 0
    assert positivity_witness_search(get_semiring("bool")) is None


@pytest.mark.parametrize("sid,rid", [
    ("gauss-rat", "ratnn"), ("rat", "ratnn"), ("split-rat", "rat"),
    ("bool", "bool"), ("ratnn", "ratnn"), ("nat", "nat"),
    ("gf2 2", "gf 2"), ("gf2 3", "gf 3"), ("complex-f64", "real-f64"),
    ("gf2 1009", "gf 1009"),  # samples the carrier: enumerating it took 10 s
])
def test_scalar_subsemiring_table(sid, rid):
    assert scalar_subsemiring(get_semiring(sid)).id == rid


@pytest.mark.parametrize("sid,literal", [
    ("bool", "2"), ("nat", "x"), ("gf 3", "1.5"), ("gf2 3", "1+xt"),
])
def test_bad_literals_name_the_token(sid, literal):
    with pytest.raises(SemiringError, match=re.escape(repr(literal))):
        get_semiring(sid).parse(literal)


AMBIENT_IDS = ["bool", "nat", "ratnn", "rat", "gauss-rat", "split-rat", "gf2 2", "gf2 5"]


@pytest.mark.parametrize("sid", AMBIENT_IDS + ["complex-f64"])
def test_positive_part_retract_splits_embed(sid):
    pp = positive_part(get_semiring(sid))
    verify_positive_part(pp)
    rng = random.Random(5)
    for _ in range(50):
        q = pp.ring.sample(rng)
        assert pp.member(pp.embed(q))
        assert pp.ring.eq(pp.retract(pp.embed(q)), q)


def test_retract_rejects_off_image_elements():
    pp = positive_part(get_semiring("gauss-rat"))
    with pytest.raises(SemiringError):
        pp.retract((F(0), F(1)))
    with pytest.raises(SemiringError):
        pp.retract((F(-1), F(0)))


@given(st.fractions(), st.fractions(), st.fractions())
def test_rat_ring_laws_hypothesis(a, b, c):
    sr = get_semiring("rat")
    assert sr.add(sr.mul(a, b), sr.mul(a, c)) == sr.mul(a, sr.add(b, c))
    assert sr.mul(a, b) == sr.mul(b, a)


@given(st.integers(0, 10 ** 6), st.integers(1, 10 ** 4))
def test_ratnn_parse_fmt_roundtrip(n, d):
    sr = get_semiring("ratnn")
    x = F(n, d)
    assert sr.parse(sr.fmt(x)) == x


@given(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))
def test_gauss_norm_is_nonnegative_rational(ab):
    sr = get_semiring("gauss-rat")
    x = (F(ab[0], 7), F(ab[1], 3))
    n = sr.mul(sr.star(x), x)
    assert n[1] == 0 and n[0] >= 0
