"""Backend self-tests and the toy-theory zoo."""

import pytest

import catprob.matcat as mc
from catprob.backend import (
    ClassicalBackend,
    QuantumBackend,
    backend_self_test,
    positivity_report,
    toy_theory,
    toyzoo_table,
)
from catprob.semirings import SemiringError, get_semiring


@pytest.mark.parametrize("sid", ["ratnn", "bool", "nat", "rat", "gf 3"])
def test_classical_self_test(sid):
    assert backend_self_test(ClassicalBackend(get_semiring(sid)), seed=1) == []


@pytest.mark.parametrize(
    "name", ["quantum-exact", "relational", "hyperbolic", "real", "modal", "quantum-f64"]
)
def test_toy_theory_self_test(name):
    assert backend_self_test(toy_theory(name), seed=2, rounds=8) == []


def test_modal_parameter():
    assert toy_theory("modal(3)").sr.id == "gf2 3"
    assert toy_theory("modal", p=5).sr.id == "gf2 5"
    assert toy_theory("modal(2)").scalar_ring.id == "gf 2"


def test_p_adic_is_out_of_scope():
    with pytest.raises(SemiringError, match="out of scope"):
        toy_theory("p-adic")
    with pytest.raises(SemiringError):
        toy_theory("fairy-dust")


def test_toyzoo_table_shape():
    rows = toyzoo_table()
    names = [r[0] for r in rows]
    assert names == ["quantum-exact", "quantum-f64", "real", "hyperbolic", "relational", "modal"]
    by_name = {r[0]: r for r in rows}
    assert by_name["quantum-exact"][3] == "ratnn"
    assert by_name["hyperbolic"][3] == "rat"
    assert by_name["modal"][1] == "gf2 p"


def test_positivity_report_strings():
    assert positivity_report(get_semiring("ratnn")) == "positive semiring: yes"
    assert positivity_report(get_semiring("rat")).startswith("positive semiring: no")


def test_quantum_backend_random_normalised_is_normalised():
    import random

    qb = QuantumBackend(get_semiring("gauss-rat"))
    rng = random.Random(3)
    for dom, cod in [(qb.quantum_obj(2), qb.quantum_obj(2)),
                     (qb.quantum_obj(2), qb.classical_obj(["0", "1"])),
                     (qb.classical_obj(["a", "b"]), qb.quantum_obj(2))]:
        ch = qb.random_normalised(dom, cod, rng)
        assert qb.is_normalised(ch)


def test_classical_backend_has_no_quantum_objects():
    b = ClassicalBackend(get_semiring("ratnn"))
    with pytest.raises(mc.ShapeError):
        b.quantum_obj(2)


class _AddDropsSecondOperand(ClassicalBackend):
    def add(self, f, g):
        return f


class _DoubledDiscard(QuantumBackend):
    def discard(self, wires):
        d = super().discard(wires)
        return self.add(d, d)


class _UnnormalisedChannels(QuantumBackend):
    def random_normalised(self, dom, cod, rng):
        n = super().random_normalised(dom, cod, rng)
        return self.add(n, n)


@pytest.mark.parametrize(
    "broken,law",
    [
        (_AddDropsSecondOperand(get_semiring("ratnn")), "addition is not commutative"),
        (_DoubledDiscard(get_semiring("gauss-rat")), "discard does not respect tensor"),
        (_UnnormalisedChannels(get_semiring("gauss-rat")), "random normalised morphism fails normalisation"),
    ],
    ids=["add-drops-second-operand", "doubled-discard", "unnormalised-channels"],
)
def test_self_test_names_the_law_a_broken_backend_breaks(broken, law):
    report = backend_self_test(broken, seed=2, rounds=8)
    assert law in report
    healthy = backend_self_test(type(broken).__mro__[1](broken.sr), seed=2, rounds=8)
    assert healthy == []
