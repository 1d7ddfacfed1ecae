"""Doubled processes: functoriality, decoherence, extraction, purity."""

import math
import random
from fractions import Fraction as F

import pytest

import catprob.matcat as mc
import catprob.quantum as qt
from catprob.semirings import get_semiring, positive_part

GR = get_semiring("gauss-rat")
CF = get_semiring("complex-f64")

Q2 = qt.QWire(2)
Q3 = qt.QWire(3)

U345 = [[(F(3, 5), F(0)), (F(4, 5), F(0))], [(F(-4, 5), F(0)), (F(3, 5), F(0))]]
U345T = [[(F(3, 5), F(0)), (F(-4, 5), F(0))], [(F(4, 5), F(0)), (F(3, 5), F(0))]]


def rand_mat(sr, rows, cols, rng):
    return [[sr.sample(rng) for _ in range(cols)] for _ in range(rows)]


def test_doubling_is_functorial_for_composition():
    rng = random.Random(0)
    a = rand_mat(GR, 2, 3, rng)
    b = rand_mat(GR, 2, 2, rng)
    ab = [[GR.sum(GR.mul(b[y][k], a[k][x]) for k in range(2)) for x in range(3)] for y in range(2)]
    lhs = qt.s_compose(qt.double(GR, b, (Q2,), (Q2,)), qt.double(GR, a, (Q3,), (Q2,)))
    rhs = qt.double(GR, ab, (Q3,), (Q2,))
    assert qt.s_equal(lhs, rhs)


def test_doubling_is_functorial_for_tensor():
    rng = random.Random(1)
    a = rand_mat(GR, 2, 2, rng)
    b = rand_mat(GR, 3, 3, rng)
    kron = [
        [GR.mul(a[i][k], b[j][l]) for k in range(2) for l in range(3)]
        for i in range(2)
        for j in range(3)
    ]
    lhs = qt.s_tensor(qt.double(GR, a, (Q2,), (Q2,)), qt.double(GR, b, (Q3,), (Q3,)))
    rhs = qt.double(GR, kron, (Q2, Q3), (Q2, Q3))
    assert qt.s_equal(lhs, rhs)


def test_quantum_discard_is_the_trace():
    disc = qt.s_discard(GR, (Q2,))
    assert disc.entries == ((GR.one, GR.zero, GR.zero, GR.one),)


def test_unitary_channel_is_normalised():
    ch = qt.double(GR, U345, (Q2,), (Q2,))
    assert qt.s_is_normalised(ch)
    inv = qt.double(GR, U345T, (Q2,), (Q2,))
    assert qt.s_equal(qt.s_compose(inv, ch), qt.s_identity(GR, (Q2,)))


def test_decoherence_is_idempotent_normalised_and_kills_offdiagonals():
    dec = qt.decoherence_superop(GR, Q2)
    assert qt.s_equal(qt.s_compose(dec, dec), dec)
    assert qt.s_is_normalised(dec)
    # equal to the Kraus channel built from the basis projectors
    projs = [[[GR.one, GR.zero], [GR.zero, GR.zero]], [[GR.zero, GR.zero], [GR.zero, GR.one]]]
    fam = qt.kraus_family(GR, (Q2,), (Q2,), projs)
    assert qt.s_equal(dec, qt.cpm_from_kraus(fam))


def test_classical_wires_reject_offdiagonal_entries():
    w = qt.cwire(mc.obj_of_size(2))
    rows = [[GR.zero] * 4 for _ in range(4)]
    rows[1][0] = GR.one  # off-diagonal doubled digit pair on a classical wire
    with pytest.raises(qt.NotDecoheredError):
        qt.superoperator(GR, (w,), (w,), rows)


def test_classical_embed_extract_roundtrip():
    pp = positive_part(GR)
    rng = random.Random(3)
    f = mc.random_normalised(pp.ring, mc.obj_of_size(3), mc.obj_of_size(2), rng)
    phi = qt.classical_embed(f, pp)
    assert qt.s_is_normalised(phi)
    back = qt.classical_extract(phi, pp)
    assert mc.equal(back, f)


def test_extract_requires_decoherence_invariance():
    pp = positive_part(GR)
    ch = qt.double(GR, U345, (Q2,), (Q2,))
    with pytest.raises(qt.NotDecoheredError):
        qt.classical_extract(ch, pp)
    dec = qt.decoherence_superop(GR, Q2)
    coh = qt.s_compose(dec, qt.s_compose(ch, dec))
    g = qt.classical_extract(coh, pp)
    assert g.sr.id == "ratnn"
    assert mc.is_normalised(g)


def test_embed_into_quantum_wires_gives_basis_preparation():
    pp = positive_part(GR)
    idx = mc.identity(pp.ring, mc.obj_of_size(2))
    prep = qt.classical_embed(idx, pp, cod=(Q2,))
    meas = qt.classical_embed(idx, pp, dom=(Q2,))
    assert qt.s_is_normalised(prep) and qt.s_is_normalised(meas)
    roundtrip = qt.s_compose(meas, prep)
    assert qt.s_equal(roundtrip, qt.s_identity(GR, meas.cod))


def test_hyperbolic_witness_state():
    sr = get_semiring("split-rat")
    vec = [[(F(5, 4), F(0))], [(F(0), F(3, 4))]]
    rho = qt.double(sr, vec, (), (Q2,))
    # diagonal doubled weights (5/4)^2 and (3/4 j)(3/4 j)* = -9/16
    assert rho.entries[0][0] == (F(25, 16), F(0))
    assert rho.entries[3][0] == (F(-9, 16), F(0))
    assert qt.s_is_normalised(rho)


def test_choi_reshuffle_convention():
    ch = qt.double(GR, U345, (Q2,), (Q2,))
    choi = qt.choi_matrix(ch)
    # Choi[(y,x),(y',x')] = U[y][x] * conj(U[y'][x'])
    for y in range(2):
        for x in range(2):
            for yp in range(2):
                for xp in range(2):
                    want = GR.mul(U345[y][x], GR.star(U345[yp][xp]))
                    assert choi[y * 2 + x][yp * 2 + xp] == want


def test_purity_verdicts_exact():
    assert qt.is_pure_choi(qt.double(GR, U345, (Q2,), (Q2,)))
    assert not qt.is_pure_choi(qt.decoherence_superop(GR, Q2))
    with pytest.raises(Exception):
        qt.is_pure_choi(qt.s_identity(get_semiring("nat"), (Q2,)))


@pytest.mark.parametrize("sid", ["ratnn", "rat", "gf2 3"])
def test_purity_verdicts_exact_other_fields(sid):
    sr = get_semiring(sid)
    ident = [[sr.one, sr.zero], [sr.zero, sr.one]]
    assert qt.is_pure_choi(qt.double(sr, ident, (Q2,), (Q2,)))
    assert not qt.is_pure_choi(qt.decoherence_superop(sr, Q2))


def test_equal_superoperators_from_separate_lookups_compare_equal():
    f = qt.s_identity(get_semiring("ratnn"), (Q2,))
    g = qt.s_identity(get_semiring("ratnn"), (Q2,))
    assert f == g and hash(f) == hash(g)
    cf = get_semiring("complex-f64", tolerance=1e-3)
    assert cf is not CF
    with pytest.raises(mc.ShapeError, match="semiring mismatch"):
        qt.s_compose(qt.s_identity(CF, (Q2,)), qt.s_identity(cf, (Q2,)))


def test_semiring_mismatch_names_both_semirings():
    rat = qt.s_identity(get_semiring("rat"), (Q2,))
    gr = qt.s_identity(GR, (Q2,))
    with pytest.raises(mc.ShapeError, match="^semiring mismatch: rat vs gauss-rat$"):
        qt.s_compose(rat, gr)
    with pytest.raises(mc.ShapeError, match="^semiring mismatch: gauss-rat vs rat$"):
        qt.s_tensor(gr, rat)
    with pytest.raises(mc.ShapeError, match="^semiring mismatch: rat vs gauss-rat$"):
        qt.s_add(rat, gr)
    with pytest.raises(mc.ShapeError, match="^semiring mismatch: gauss-rat vs rat$"):
        qt.s_add(gr, rat)


def test_purity_verdicts_float():
    th = 0.3
    u = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
    assert qt.is_pure_choi(qt.double(CF, u, (Q2,), (Q2,)))
    assert not qt.is_pure_choi(qt.decoherence_superop(CF, Q2))


def test_purify_roundtrip_and_environment_stack():
    rng = random.Random(7)
    mats = [rand_mat(CF, 2, 2, rng) for _ in range(2)]
    phi = qt.cpm_from_kraus(qt.kraus_family(CF, (Q2,), (Q2,), mats))
    fam = qt.purify(phi)
    back = qt.cpm_from_kraus(fam)
    err = max(
        abs(a - b) for ra, rb in zip(phi.entries, back.entries) for a, b in zip(ra, rb)
    )
    assert err < 1e-9
    pure, cod = qt.stack_environment(fam)
    stacked = qt.double(CF, pure, (Q2,), cod)
    assert qt.is_pure_choi(stacked)
    contracted = qt.s_compose(
        qt.s_tensor(qt.s_identity(CF, (Q2,)), qt.s_discard(CF, (cod[-1],))), stacked
    )
    err2 = max(
        abs(a - b) for ra, rb in zip(phi.entries, contracted.entries) for a, b in zip(ra, rb)
    )
    assert err2 < 1e-9


def test_purify_rejects_non_cp_maps():
    rows = [[CF.zero] * 4 for _ in range(4)]
    rows[0][0] = -1.0 + 0j  # negative weight on |0><0|
    bad = qt.Superoperator((Q2,), (Q2,), tuple(map(tuple, rows)), CF)
    with pytest.raises(qt.NotCompletelyPositiveError):
        qt.purify(bad)


def test_purify_requires_float_mode():
    with pytest.raises(Exception):
        qt.purify(qt.double(GR, U345, (Q2,), (Q2,)))


def test_swap_moves_wires():
    w = qt.cwire(mc.obj_of_size(2))
    sw = qt.s_swap(GR, Q2, w)
    ws = qt.s_swap(GR, w, Q2)
    assert qt.s_equal(qt.s_compose(ws, sw), qt.s_identity(GR, (Q2, w)))
