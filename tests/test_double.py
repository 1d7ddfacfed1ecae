"""Differential tests of `quantum.double`, the CPM doubling f (x) f*.

`reference_double` is the entry-by-entry loop that `quantum.double` ran
before it conjugated each plain entry once; the two must agree under `==`.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import catprob.matcat as mc
import catprob.quantum as qt
from test_matmul import ELEMENTS, SEMIRINGS, _BY_ID


def reference_double(sr, mat, dom, cod):
    mat = [list(r) for r in mat]
    rows = [[sr.zero] * qt.doubled_dim(dom) for _ in range(qt.doubled_dim(cod))]
    for rp in qt.index_pairs(cod):
        y = qt.plain_lin(cod, [i for i, _ in rp])
        yp = qt.plain_lin(cod, [j for _, j in rp])
        for cp in qt.index_pairs(dom):
            x = qt.plain_lin(dom, [i for i, _ in cp])
            xp = qt.plain_lin(dom, [j for _, j in cp])
            rows[qt.lin(cod, rp)][qt.lin(dom, cp)] = sr.mul(mat[y][x], sr.star(mat[yp][xp]))
    return tuple(map(tuple, rows))


_wire = st.one_of(
    st.builds(qt.QWire, st.integers(1, 3)),
    st.builds(lambda n: qt.cwire(mc.obj_of_size(n)), st.integers(1, 3)),
)
_wires = st.lists(_wire, max_size=2).map(tuple)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_double_matches_the_reference_loop(sr, data):
    dom, cod = data.draw(_wires), data.draw(_wires)
    entry = ELEMENTS[sr.id]
    row = st.lists(entry, min_size=qt.plain_dim(dom), max_size=qt.plain_dim(dom))
    mat = data.draw(st.lists(row, min_size=qt.plain_dim(cod), max_size=qt.plain_dim(cod)))
    got = qt.double(sr, mat, dom, cod)
    assert (got.dom, got.cod) == (dom, cod)
    assert got.entries == reference_double(sr, mat, dom, cod)


@pytest.mark.parametrize("sr", SEMIRINGS, **_BY_ID)
def test_double_conjugates_each_plain_entry_once(sr):
    calls = []

    def counting(x):
        calls.append(x)
        return sr.star(x)

    counted = dataclasses.replace(sr, star=counting)
    dom, cod = (qt.QWire(2), qt.cwire(mc.obj_of_size(3))), (qt.QWire(3),)
    rng = random.Random(3)
    mat = [[sr.sample(rng) for _ in range(6)] for _ in range(3)]
    got = qt.double(counted, mat, dom, cod)
    assert len(calls) == 3 * 6
    assert got.entries == reference_double(sr, mat, dom, cod)
