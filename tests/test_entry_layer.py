"""Differential tests of the shared Mat(S) entry layer and the doubled-index map.

Each `reference_*` function is the index loop that `matcat`, `quantum` or
`scenarios` ran before the entry loops moved into `matcat`'s row-level helpers,
`_kron` skipped structural zeros and every doubled index was read from
`quantum._plain_pairs`; results must agree with the current code under `==`.
"""

import itertools
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import catprob.matcat as mc
import catprob.quantum as qt
from catprob.scenarios import _measurement_from_kraus, _PartySpec, density_to_state
from catprob.semirings import SemiringError, get_semiring, positive_part
from test_double import _wires
from test_matmul import ELEMENTS, SEMIRINGS, _BY_ID


def reference_kron(sr, f_rows, g_rows):
    fr, fc, gr, gc = len(f_rows), len(f_rows[0]), len(g_rows), len(g_rows[0])
    return tuple(
        tuple(sr.mul(f_rows[rf][cf], g_rows[rg][cg]) for cf in range(fc) for cg in range(gc))
        for rf in range(fr)
        for rg in range(gr)
    )


def reference_swap(sr, a, b):
    dom, cod = (a, b), (b, a)
    rows = [[sr.zero] * qt.doubled_dim(dom) for _ in range(qt.doubled_dim(cod))]
    for pa in itertools.product(range(a.size), repeat=2):
        for pb in itertools.product(range(b.size), repeat=2):
            if isinstance(a, qt.CWire) and pa[0] != pa[1]:
                continue
            if isinstance(b, qt.CWire) and pb[0] != pb[1]:
                continue
            rows[qt.lin(cod, (pb, pa))][qt.lin(dom, (pa, pb))] = sr.one
    return tuple(map(tuple, rows))


def reference_kraus_measurement(sr, kraus, m_wire, h_wire, o_wire):
    """`kraus[mi][oi]` is the parsed Kraus block of outcome oi under choice mi."""
    dom, cod = (m_wire, h_wire), (o_wire,)
    rows = [[sr.zero] * qt.doubled_dim(dom) for _ in range(qt.doubled_dim(cod))]
    d = h_wire.dim
    no = o_wire.size
    for mi, blocks in enumerate(kraus):
        for oi, k in enumerate(blocks):
            r = (oi * no) + oi
            for x in range(d):
                for xp in range(d):
                    c = ((mi * m_wire.size + mi) * d + x) * d + xp
                    val = sr.sum(sr.mul(k[e][x], sr.star(k[e][xp])) for e in range(len(k)))
                    rows[r][c] = sr.add(rows[r][c], val)
    return tuple(map(tuple, rows))


def reference_choi(phi):
    din, dout = qt.plain_dim(phi.dom), qt.plain_dim(phi.cod)
    flat = [[phi.sr.zero] * (din * din) for _ in range(dout * dout)]
    for rp in qt.index_pairs(phi.cod):
        y = qt.plain_lin(phi.cod, [i for i, _ in rp])
        yp = qt.plain_lin(phi.cod, [j for _, j in rp])
        for cp in qt.index_pairs(phi.dom):
            x = qt.plain_lin(phi.dom, [i for i, _ in cp])
            xp = qt.plain_lin(phi.dom, [j for _, j in cp])
            flat[y * dout + yp][x * din + xp] = phi.entries[qt.lin(phi.cod, rp)][qt.lin(phi.dom, cp)]
    n = dout * din
    choi = [[phi.sr.zero] * n for _ in range(n)]
    for y, yp, x, xp in itertools.product(range(dout), range(dout), range(din), range(din)):
        choi[y * din + x][yp * din + xp] = flat[y * dout + yp][x * din + xp]
    return choi


def reference_extract(phi, pp):
    rows = []
    for ds in itertools.product(*(range(w.size) for w in phi.cod)):
        r = qt.lin(phi.cod, [(i, i) for i in ds])
        row = []
        for cs in itertools.product(*(range(w.size) for w in phi.dom)):
            c = qt.lin(phi.dom, [(i, i) for i in cs])
            row.append(pp.retract(phi.entries[r][c]))
        rows.append(tuple(row))
    return tuple(rows)


def _diag_digits(wires, flat):
    digits = []
    for w in reversed(wires):
        digits.append(flat % w.size)
        flat //= w.size
    digits.reverse()
    return [(i, i) for i in digits]


def reference_embed(f, pp, dom, cod):
    rows = [[pp.ambient.zero] * qt.doubled_dim(dom) for _ in range(qt.doubled_dim(cod))]
    for y in range(f.cod.size):
        r = qt.lin(cod, _diag_digits(cod, y))
        for x in range(f.dom.size):
            c = qt.lin(dom, _diag_digits(dom, x))
            rows[r][c] = pp.embed(f.entries[y][x])
    return tuple(map(tuple, rows))


def reference_density(sr, wires, rho):
    col = [[sr.zero] for _ in range(qt.doubled_dim(wires))]
    for pairs in qt.index_pairs(wires):
        i = qt.plain_lin(wires, [a for a, _ in pairs])
        j = qt.plain_lin(wires, [bq for _, bq in pairs])
        col[qt.lin(wires, pairs)][0] = rho[i][j]
    return tuple(map(tuple, col))


def _entries(data, elements, rows, cols):
    """A rows x cols matrix over a small drawn pool of elements."""
    pool = data.draw(st.lists(elements, min_size=1, max_size=6))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    return tuple(tuple(rng.choice(pool) for _ in range(cols)) for _ in range(rows))


def _split(data):
    """A (dom, cod) pair cut from one list of 0-2 mixed wires."""
    wires = data.draw(_wires)
    k = data.draw(st.integers(0, len(wires)))
    return wires[:k], wires[k:]


def _superop(data, sr):
    dom, cod = _split(data)
    entries = _entries(data, ELEMENTS[sr.id], qt.doubled_dim(cod), qt.doubled_dim(dom))
    return qt.Superoperator(dom, cod, entries, sr)


def _morphism(data, sr):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    return mc.Morphism(mc.obj_of_size(n), mc.obj_of_size(m), _entries(data, ELEMENTS[sr.id], m, n), sr)


_POSITIVE = [sr for sr in SEMIRINGS if sr.scalars is not None]


def _ring_elements(ring):
    return ELEMENTS[ring.id] if ring.id in ELEMENTS else st.sampled_from(list(ring.elements))


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_tensor_matches_the_reference_kronecker_loop(sr, data):
    f, g = _morphism(data, sr), _morphism(data, sr)
    got = mc.tensor(f, g)
    assert (got.dom, got.cod) == (mc.obj_tensor(f.dom, g.dom), mc.obj_tensor(f.cod, g.cod))
    assert got.entries == reference_kron(sr, f.entries, g.entries)


_KRON_CASES = ("zero rows in g", "zero entries in f", "all-zero operands", "one row or column")


@pytest.mark.parametrize("case", _KRON_CASES)
@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_kron_matches_the_reference_loop_on_structural_zeros(sr, case, data):
    zero = sr.zero
    dims = [data.draw(st.integers(1, 4)) for _ in range(4)]
    if case == "one row or column":
        dims[data.draw(st.integers(0, 3))] = 1
    fr, fc, gr, gc = dims
    sparse = st.one_of(st.just(zero), ELEMENTS[sr.id])
    f = [list(row) for row in _entries(data, sparse, fr, fc)]
    g = [list(row) for row in _entries(data, sparse, gr, gc)]
    if case == "zero rows in g":
        for i in data.draw(st.sets(st.integers(0, gr - 1), min_size=1)):
            g[i] = [zero] * gc
    elif case == "zero entries in f":
        for i, j in data.draw(st.sets(st.tuples(st.integers(0, fr - 1), st.integers(0, fc - 1)), min_size=1)):
            f[i][j] = zero
    elif case == "all-zero operands":
        for m in data.draw(st.sampled_from([[f], [g], [f, g]])):
            m[:] = [[zero] * len(m[0]) for _ in m]
    f, g = tuple(map(tuple, f)), tuple(map(tuple, g))
    assert mc._kron(sr, f, g) == reference_kron(sr, f, g)


def test_float_tensor_keeps_the_signed_zero_of_each_product():
    sr = get_semiring("complex-f64")
    x = mc.obj_of_size(1)
    got = mc.tensor(mc.Morphism(x, x, ((-1 + 0j,),), sr), mc.Morphism(x, x, ((0j,),), sr))
    assert sr.fmt(got.entries[0][0]) == "-0+0i"


_wire = st.one_of(
    st.builds(qt.QWire, st.integers(1, 3)),
    st.integers(1, 3).map(lambda n: qt.cwire(mc.obj_of_size(n))),
)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(a=_wire, b=_wire)
def test_s_swap_matches_the_reference_index_loop(sr, a, b):
    got = qt.s_swap(sr, a, b)
    assert (got.dom, got.cod) == ((a, b), (b, a))
    assert got.entries == reference_swap(sr, a, b)


def _literals(sr, rng):
    """Element literals that `sr.parse` reads, zero among them."""
    out = []
    for x in [sr.zero] + [sr.sample(rng) for _ in range(6)]:
        try:
            sr.parse(sr.fmt(x))
        except SemiringError:
            continue
        out.append(sr.fmt(x))
    return out


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_kraus_measurement_matches_the_reference_index_loop(sr, data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    lits = _literals(sr, rng)
    nm, no, d = (data.draw(st.integers(1, 3)) for _ in range(3))
    spec = _PartySpec("A", tuple(map(str, range(nm))), tuple(map(str, range(no))), dim=d, kraus={})
    for choice in spec.choices:
        spec.kraus[choice] = [
            [[rng.choice(lits) for _ in range(d)] for _ in range(data.draw(st.integers(1, 2)))]
            for _ in range(no)
        ]
    m_wire, h_wire, o_wire = qt.cwire(mc.obj(*spec.choices)), qt.QWire(d), qt.cwire(mc.obj(*spec.outcomes))
    got = _measurement_from_kraus(SimpleNamespace(sr=sr), spec, m_wire, h_wire, o_wire)
    parsed = [[[[sr.parse(x) for x in row] for row in k] for k in spec.kraus[c]] for c in spec.choices]
    assert (got.dom, got.cod) == ((m_wire, h_wire), (o_wire,))
    want = reference_kraus_measurement(sr, parsed, m_wire, h_wire, o_wire)
    assert got.entries == want
    assert repr(got.entries) == repr(want)  # also tells a float -0.0 from 0.0


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_s_tensor_matches_the_reference_kronecker_loop(sr, data):
    f, g = _superop(data, sr), _superop(data, sr)
    got = qt.s_tensor(f, g)
    assert (got.dom, got.cod) == (f.dom + g.dom, f.cod + g.cod)
    assert got.entries == reference_kron(sr, f.entries, g.entries)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_sum_scale_and_difference_match_the_reference_loops(sr, data):
    f = _superop(data, sr)
    rows, cols = len(f.entries), len(f.entries[0])
    g = qt.Superoperator(f.dom, f.cod, _entries(data, ELEMENTS[sr.id], rows, cols), sr)
    s = data.draw(ELEMENTS[sr.id])
    pairs = [(a, b) for rf, rg in zip(f.entries, g.entries) for a, b in zip(rf, rg)]
    assert qt.s_add(f, g).entries == tuple(
        tuple(sr.add(a, b) for a, b in zip(rf, rg)) for rf, rg in zip(f.entries, g.entries)
    )
    assert qt.s_scale(s, f).entries == tuple(tuple(sr.mul(s, x) for x in row) for row in f.entries)
    assert qt.s_equal(f, g) == all(sr.eq(a, b) for a, b in pairs)
    m, n = mc.obj_of_size(cols), mc.obj_of_size(rows)
    mf, mg = mc.Morphism(m, n, f.entries, sr), mc.Morphism(m, n, g.entries, sr)
    want = next(
        ((k // cols, k % cols, a, b) for k, (a, b) in enumerate(pairs) if not sr.eq(a, b)), None
    )
    assert mc.first_difference(mf, mg) == want
    assert mc.equal(mf, mg) == (want is None)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_choi_matrix_matches_the_reference_reshuffle(sr, data):
    wires = data.draw(st.lists(st.builds(qt.QWire, st.integers(1, 3)), max_size=2).map(tuple))
    k = data.draw(st.integers(0, len(wires)))
    dom, cod = wires[:k], wires[k:]
    phi = qt.Superoperator(
        dom, cod, _entries(data, ELEMENTS[sr.id], qt.doubled_dim(cod), qt.doubled_dim(dom)), sr
    )
    assert qt.choi_matrix(phi) == reference_choi(phi)


def test_choi_matrix_refuses_classical_wires():
    sr = SEMIRINGS[0]
    w = qt.cwire(mc.obj_of_size(2))
    with pytest.raises(mc.ShapeError, match="quantum-only"):
        qt.choi_matrix(qt.s_identity(sr, (w,)))


@pytest.mark.parametrize("sr", _POSITIVE, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_embed_and_extract_match_the_reference_index_loops(sr, data):
    pp = positive_part(sr)
    dom, cod = data.draw(_wires), data.draw(_wires)
    n, m = qt.plain_dim(dom), qt.plain_dim(cod)
    entries = _entries(data, _ring_elements(pp.ring), m, n)
    f = mc.Morphism(mc.obj_of_size(n), mc.obj_of_size(m), entries, pp.ring)
    phi = qt.classical_embed(f, pp, dom, cod)
    assert (phi.dom, phi.cod) == (dom, cod)
    assert phi.entries == reference_embed(f, pp, dom, cod)
    back = qt.classical_extract(phi, pp)
    assert (back.dom.size, back.cod.size) == (n, m)
    assert back.entries == reference_extract(phi, pp) == f.entries


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_density_to_state_matches_the_reference_loop(sr, data):
    wires = data.draw(_wires)
    d = qt.plain_dim(wires)
    rho = [list(row) for row in _entries(data, ELEMENTS[sr.id], d, d)]
    got = density_to_state(sr, wires, rho)
    assert (got.dom, got.cod) == ((), wires)
    assert got.entries == reference_density(sr, wires, rho)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
def test_stack_environment_interleaves_the_kraus_rows(sr):
    rng = random.Random(5)
    dom, cod = (qt.QWire(2),), (qt.QWire(3),)
    mats = [[[sr.sample(rng) for _ in range(2)] for _ in range(3)] for _ in range(4)]
    rows, wires = qt.stack_environment(qt.kraus_family(sr, dom, cod, mats))
    assert wires == cod + (qt.QWire(4),)
    assert rows == tuple(tuple(mats[e][y]) for y in range(3) for e in range(4))
