"""Differential tests of decoherence as an index mask.

Each `reference_*` function is the construction that `quantum` and
`backend.QuantumBackend` used before the classical-wire rule moved into the
one cached map `quantum._live`: decoherence as a product with a projector
built entry by entry, a per-digit-pair scan for classical wires, and
hand-placed classical states and effects. Results must agree with the current
code under `==` (under `s_equal` for the float semirings, whose products may
flip the sign of a zero).
"""

import ast
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import catprob
import catprob.matcat as mc
import catprob.quantum as qt
from catprob.backend import QuantumBackend
from test_double import _wires
from test_entry_layer import _POSITIVE, _entries
from test_matmul import ELEMENTS, SEMIRINGS, _BY_ID


def reference_projector(sr, wires):
    n = qt.doubled_dim(wires)
    rows = [[sr.zero] * n for _ in range(n)]
    for pairs in qt.index_pairs(wires):
        if all(i == j for i, j in pairs):
            rows[qt.lin(wires, pairs)][qt.lin(wires, pairs)] = sr.one
    return qt.Superoperator(wires, wires, tuple(map(tuple, rows)), sr)


def reference_decohere(phi):
    dec_d = reference_projector(phi.sr, phi.dom)
    dec_c = reference_projector(phi.sr, phi.cod)
    return qt.s_compose(dec_c, qt.s_compose(phi, dec_d))


def _classical_diagonal(wires, pairs):
    return all(i == j for w, (i, j) in zip(wires, pairs) if isinstance(w, qt.CWire))


def reference_live(wires):
    return tuple(k for k, pairs in enumerate(qt.index_pairs(wires)) if _classical_diagonal(wires, pairs))


def reference_first_breach(phi):
    """The (row, col) the per-pair scan of `check_classical_invariance` named."""
    for r, rp in enumerate(qt.index_pairs(phi.cod)):
        row_ok = _classical_diagonal(phi.cod, rp)
        for c, cp in enumerate(qt.index_pairs(phi.dom)):
            if row_ok and _classical_diagonal(phi.dom, cp):
                continue
            if not phi.sr.eq(phi.entries[r][c], phi.sr.zero):
                return r, c
    return None


def reference_delta_state(sr, w, label):
    col = [[sr.zero] for _ in range(w.size * w.size)]
    col[qt._diagonal((w,))[w.as_obj().index(label)]][0] = sr.one
    return qt.Superoperator((), (w,), tuple(map(tuple, col)), sr)


def reference_point_effect(sr, w, label):
    row = [sr.zero] * (w.size * w.size)
    row[qt._diagonal((w,))[w.as_obj().index(label)]] = sr.one
    return qt.Superoperator((w,), (), (tuple(row),), sr)


def reference_random_normalised(qb, dom, cod, rng):
    nd, nc = qt.plain_dim(dom), qt.plain_dim(cod)
    xd, xc = mc.obj_of_size(nd), mc.obj_of_size(nc)
    meas = qt.classical_embed(mc.identity(qb.pp.ring, xd), qb.pp, dom=dom, cod=(qt.cwire(xd),))
    stoch = mc.random_normalised(qb.pp.ring, xd, xc, rng)
    prep = qt.classical_embed(mc.identity(qb.pp.ring, xc), qb.pp, dom=(qt.cwire(xc),), cod=cod)
    mid = qt.classical_embed(stoch, qb.pp)
    return qt.s_compose(prep, qt.s_compose(mid, meas))


def reference_random_morphism(qb, dom, cod, rng):
    k = rng.randrange(1, 3)
    mats = [
        [[qb.sr.sample(rng) for _ in range(qt.plain_dim(dom))] for _ in range(qt.plain_dim(cod))]
        for _ in range(k)
    ]
    phi = qt.cpm_from_kraus(qt.kraus_family(qb.sr, dom, cod, mats))
    if any(isinstance(w, qt.CWire) for w in dom + cod):
        phi = reference_decohere(phi)
    return phi


def assert_same(got, want):
    assert (got.dom, got.cod, got.sr) == (want.dom, want.cod, want.sr)
    if got.sr.exact:
        assert got.entries == want.entries
    else:
        assert qt.s_equal(got, want)


_wire_lists = st.lists(
    st.one_of(
        st.builds(qt.QWire, st.integers(1, 3)),
        st.integers(1, 3).map(lambda n: qt.cwire(mc.obj_of_size(n))),
    ),
    max_size=3,
).map(tuple)


def _superop(data, sr, invariant):
    """A process on mixed wires; if `invariant`, zero off the classical
    diagonal, and otherwise possibly with entries there."""
    wires = data.draw(_wire_lists)
    k = data.draw(st.integers(0, len(wires)))
    dom, cod = wires[:k], wires[k:]
    sparse = st.one_of(st.just(sr.zero), ELEMENTS[sr.id])
    rows = [list(r) for r in _entries(data, sparse, qt.doubled_dim(cod), qt.doubled_dim(dom))]
    if invariant:
        live_r, live_c = set(reference_live(cod)), set(reference_live(dom))
        for r, row in enumerate(rows):
            for c in range(len(row)):
                if r not in live_r or c not in live_c:
                    row[c] = sr.zero
    return qt.Superoperator(dom, cod, tuple(map(tuple, rows)), sr)


@settings(max_examples=60, deadline=None)
@given(wires=_wire_lists)
def test_live_matches_the_per_pair_filter(wires):
    assert qt._live(wires) == reference_live(wires)
    if all(isinstance(w, qt.CWire) for w in wires):
        assert qt._live(wires) == qt._diagonal(wires)


@pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "arbitrary"])
@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_decohere_matches_the_projector_products(sr, invariant, data):
    phi = _superop(data, sr, invariant)
    want = reference_decohere(phi)
    assert_same(qt.decohere(phi), want)
    assert qt.is_decoherence_invariant(phi) == qt.s_equal(phi, want)


@pytest.mark.parametrize("invariant", [True, False], ids=["invariant", "arbitrary"])
@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_classical_invariance_check_names_the_scanned_entry(sr, invariant, data):
    phi = _superop(data, sr, invariant)
    breach = reference_first_breach(phi)
    if invariant:
        assert breach is None
    if breach is None:
        qt.check_classical_invariance(phi)
        assert qt.superoperator(sr, phi.dom, phi.cod, phi.entries) == phi
    else:
        r, c = breach
        msg = f"entry at row {r}, col {c} breaks decoherence invariance on a classical wire"
        with pytest.raises(qt.NotDecoheredError) as err:
            qt.check_classical_invariance(phi)
        assert str(err.value) == msg


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(wires=_wire_lists)
def test_decoherence_projector_matches_the_entrywise_one(sr, wires):
    assert qt.decoherence_all(sr, wires) == reference_projector(sr, wires)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=20, deadline=None)
@given(wires=_wires)
def test_identity_matches_the_per_pair_filter(sr, wires):
    n = qt.doubled_dim(wires)
    live = set(reference_live(wires))
    want = tuple(tuple(sr.one if r == c and r in live else sr.zero for c in range(n)) for r in range(n))
    assert qt.s_identity(sr, wires).entries == want


@pytest.mark.parametrize("sr", _POSITIVE, **_BY_ID)
def test_classical_states_and_effects_match_the_hand_placed_ones(sr):
    qb = QuantumBackend(sr)
    for n in (1, 2, 3):
        x = qb.classical_obj([str(k) for k in range(n)])
        for label in x[0].labels:
            for got, want in [
                (qb.delta_state(x, label), reference_delta_state(sr, x[0], label)),
                (qb.point_effect(x, label), reference_point_effect(sr, x[0], label)),
            ]:
                assert (got.dom, got.cod) == (want.dom, want.cod)
                assert got.entries == want.entries
                assert repr(got.entries) == repr(want.entries)


@pytest.mark.parametrize("sr", _POSITIVE, **_BY_ID)
@settings(max_examples=15, deadline=None)
@given(dom=_wires, cod=_wires, seed=st.integers(0, 2 ** 32))
def test_random_channels_match_the_composed_construction(sr, dom, cod, seed):
    qb = QuantumBackend(sr)
    got_rng, want_rng = random.Random(seed), random.Random(seed)
    assert_same(qb.random_normalised(dom, cod, got_rng), reference_random_normalised(qb, dom, cod, want_rng))
    assert_same(qb.random_morphism(dom, cod, got_rng), reference_random_morphism(qb, dom, cod, want_rng))
    assert got_rng.getstate() == want_rng.getstate()


def _calls(tree, name):
    """(enclosing function, line) of each call of `name` in a module tree."""
    found = []

    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if isinstance(child, ast.Call):
                f = child.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == name:
                    found.append((fn, child.lineno))
            visit(child, inner)

    visit(tree, None)
    return found


def test_only_the_index_maps_enumerate_digit_pairs_and_only_quantum_builds_projectors():
    """The classical-wire rule lives in `quantum._live` and the doubled
    layout in `quantum._plain_pairs`; decoherence elsewhere is `decohere`."""
    src = pathlib.Path(catprob.__file__).parent
    pair_scans, projectors = [], []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        pair_scans += [(path.name, fn) for fn, _ in _calls(tree, "index_pairs")]
        if path.name != "quantum.py":
            projectors += [f"{path.name}:{line}" for _, line in _calls(tree, "decoherence_all")]
    assert sorted(pair_scans) == [("quantum.py", "_live"), ("quantum.py", "_plain_pairs")]
    assert projectors == []

