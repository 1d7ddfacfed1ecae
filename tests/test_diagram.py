"""The diagram DSL: parsing, pretty-printing, typechecking, evaluation."""

import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import catprob.diagram as dg
import catprob.matcat as mc
from catprob.backend import ClassicalBackend, QuantumBackend
from catprob.semirings import get_semiring

B = ClassicalBackend(get_semiring("ratnn"))

DOC = """
sys x classical 2
sys h classical 3
gen f : x -> h = [[1/2, 0], [1/2, 1/2], [0, 1/2]]
f ; disc[h]
"""


def test_parse_and_evaluate():
    doc = dg.parse(DOC)
    v = dg.run_document(doc, B)
    assert v.entries == ((F(1), F(1)),)


def test_precedence_par_tighter_than_seq_tighter_than_sum():
    doc = dg.parse(
        "sys x classical 2\n"
        "state[x,0] * effect[x,0] ; sw[x,x] + state[x,1] * effect[x,1] ; sw[x,x]"
    )
    node = doc.expr
    assert node.op == "+" and len(node.items) == 2
    assert node.items[0].op == ";" and len(node.items[0].items) == 2
    assert node.items[0].items[0].op == "*"


def test_sequential_composition_is_diagram_order():
    doc = dg.parse("sys x classical 2\nstate[x,0] ; effect[x,1]")
    v = dg.run_document(doc, B)
    assert v.entries == ((F(0),),)


def test_scalar_atom():
    doc = dg.parse("sys x classical 2\n1/3 . id[x] + 2/3 . id[x]")
    v = dg.run_document(doc, B)
    assert mc.equal(v, mc.identity(B.sr, mc.obj("0", "1")))


def test_typecheck_errors_carry_positions():
    doc = dg.parse("sys x classical 2\nsys h classical 3\nid[x] ; id[h]")
    with pytest.raises(dg.DiagramTypeError) as exc:
        dg.typecheck(doc.expr, doc.decls)
    assert "line 3" in str(exc.value)
    with pytest.raises(dg.DiagramTypeError, match="undeclared system"):
        dg.typecheck(dg.parse("id[nope]").expr, dg.Declarations({}, {}))
    with pytest.raises(dg.DiagramTypeError, match="undeclared generator"):
        doc2 = dg.parse("sys x classical 2\nmystery")
        dg.typecheck(doc2.expr, doc2.decls)


def test_sum_type_mismatch():
    doc = dg.parse("sys x classical 2\nsys h classical 3\ndisc[x] + disc[h]")
    with pytest.raises(dg.DiagramTypeError, match="different types"):
        dg.typecheck(doc.expr, doc.decls)


def test_state_effect_need_classical_wires():
    doc = dg.parse("sys q quantum 2\nstate[q,0]")
    with pytest.raises(dg.DiagramTypeError, match="classical wire"):
        dg.typecheck(doc.expr, doc.decls)
    doc2 = dg.parse("sys x classical 2\nstate[x,5]")
    with pytest.raises(dg.DiagramTypeError, match="not a label"):
        dg.typecheck(doc2.expr, doc2.decls)


def test_syntax_errors():
    with pytest.raises(dg.DiagramSyntaxError):
        dg.parse("sys x classical\nid[x]")
    with pytest.raises(dg.DiagramSyntaxError):
        dg.parse("sys x classical 2\nid[x] ;")
    with pytest.raises(dg.DiagramSyntaxError):
        dg.parse("sys x classical 2\n")
    with pytest.raises(dg.DiagramSyntaxError):
        dg.parse("sys x classical 2\nid[x] @ id[x]")


def test_duplicate_declarations_rejected():
    with pytest.raises(dg.DiagramSyntaxError, match="duplicate"):
        dg.parse("sys x classical 2\nsys x classical 3\nid[x]")
    with pytest.raises(dg.DiagramSyntaxError, match="duplicate"):
        dg.parse("sys x classical 2\ngen f : x -> x\ngen f : x -> x\nf")


def test_quantum_backend_evaluation():
    qb = QuantumBackend(get_semiring("gauss-rat"))
    doc = dg.parse("sys x classical 2\nsys q quantum 2\nid[x] * disc[q] ; id[x]")
    # bind nothing; all atoms are structural
    v = dg.run_document(doc, qb)
    assert qb.is_normalised(v)


def test_inline_matrices_are_classical_only():
    qb = QuantumBackend(get_semiring("gauss-rat"))
    doc = dg.parse("sys x classical 2\ngen f : x -> x = [[1, 0], [0, 1]]\nf")
    with pytest.raises(dg.DiagramTypeError, match="classical-only"):
        dg.run_document(doc, qb)


def test_bindings_file_roundtrip():
    doc = dg.parse("sys x classical 2\ngen f : x -> x\nf")
    raw = dg.load_bindings("semiring ratnn\ngen f = [[1/2, 0], [1/2, 1]]\n", B)
    bound = dg.bind_generators(doc, B, raw)
    v = dg.run_document(doc, B, bound)
    assert v.entries == ((F(1, 2), F(0)), (F(1, 2), F(1)))
    with pytest.raises(dg.DiagramTypeError):
        dg.load_bindings("semiring nat\ngen f = [[1]]\n", B)
    with pytest.raises(dg.DiagramSyntaxError):
        dg.load_bindings("wibble\n", B)


def test_bindings_semiring_line_names_a_semiring_not_a_string():
    gf3 = ClassicalBackend(get_semiring("gf 3"))
    assert dg.load_bindings("semiring gf  3\ngen f = [[1]]\n", gf3) == {"f": [["1"]]}
    with pytest.raises(dg.DiagramTypeError, match="bindings are over 'nat', backend is 'ratnn'"):
        dg.load_bindings("semiring nat\ngen f = [[1]]\n", B)
    cf = ClassicalBackend(get_semiring("complex-f64", tolerance=1e-4))
    assert dg.load_bindings("semiring complex-f64\n", cf) == {}
    with pytest.raises(dg.DiagramTypeError, match="backend is 'ratnn'"):
        dg.load_bindings("semiring complex-f64\n", B)
    sr, raw = dg.parse_bindings("semiring ratnn  # the default\ngen f = [[1/2]]\n", 1e-9)
    assert sr is B.sr and raw == {"f": [["1/2"]]}


# ---------------------------------------------------------------------------
# pretty-printer round trip on random ASTs

_WIRES = ("x", "h")


def _ast(depth):
    leaves = st.one_of(
        st.sampled_from([dg.Id(("x",)), dg.Id(("h",)), dg.Disc("x"), dg.Gen("f"),
                         dg.Swap("x", "h"), dg.State("x", "0"), dg.Effect("h", "1")]),
    )
    if depth == 0:
        return leaves
    sub = _ast(depth - 1)
    return st.one_of(
        leaves,
        st.builds(dg.Chain, st.sampled_from(dg._OPS), st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(dg.Scale, st.sampled_from(["2", "1/3", "0"]), sub),
    )


@settings(max_examples=200, deadline=None)
@given(_ast(4))
def test_pretty_parse_roundtrip(node):
    assert dg.parse_expr(dg.pretty(node)) == node


def test_roundtrip_preserves_semantics():
    rng = random.Random(9)
    doc = dg.parse(
        "sys x classical 2\n"
        "gen f : x -> x\n"
        "(f ; f) * disc[x] + 1/2 . (f * disc[x]) + 1/2 . (f * disc[x])"
    )
    f = mc.random_normalised(B.sr, mc.obj("0", "1"), mc.obj("0", "1"), rng)
    v1 = dg.evaluate(doc.expr, B, doc.decls, {"f": f})
    reparsed = dg.parse_expr(dg.pretty(doc.expr))
    assert dg.typecheck(reparsed, doc.decls) == dg.typecheck(doc.expr, doc.decls) == (("x", "x"), ("x",))
    v2 = dg.evaluate(reparsed, B, doc.decls, {"f": f})
    assert mc.equal(v1, v2)


def test_nesting_is_bounded_without_recursion_errors():
    deepest = "(" * dg._MAX_NESTING + "f" + ")" * dg._MAX_NESTING
    assert dg.parse_expr(deepest) == dg.Gen("f")
    assert dg.parse_expr("1 . " * dg._MAX_NESTING + "f").scalar == "1"
    for src in ["(" + deepest + ")", "1 . " * (dg._MAX_NESTING + 1) + "f", "(" * 5000 + "f" + ")" * 5000]:
        with pytest.raises(dg.DiagramSyntaxError, match=f"nested more than {dg._MAX_NESTING} deep"):
            dg.parse_expr(src)


@pytest.mark.parametrize("src,message", [
    ("f ;", "unexpected end of input"),
    ("f ; ; g", "line 1, col 5: unexpected ';'"),
    ("(f ; g", "end of input: expected ')', got end of input"),
    ("id[x", "end of input: expected ']', got end of input"),
    ("id x]", "line 1, col 4: expected '[', got 'x'"),
    ("sw[x]", "line 1: sw takes exactly two wires"),
    ("disc[x, y]", "line 1: disc takes exactly one wire"),
    ("state[x]", "line 1: state takes a wire and a label"),
    ("id[x, ;]", "line 1, col 7: bad argument ';'"),
    ("1/2 f", "line 1, col 5: expected '.', got 'f'"),
    ("1/2 .", "unexpected end of input"),
    ("f g", "line 1, col 3: unexpected 'g'"),
    ("(f))", "line 1, col 4: unexpected ')'"),
    ("f\n  + )", "line 2, col 5: unexpected ')'"),
])
def test_syntax_error_messages_name_the_token(src, message):
    with pytest.raises(dg.DiagramSyntaxError) as info:
        dg.parse_expr(src)
    assert str(info.value) == message


def test_parsing_is_linear_in_chain_length():
    """The parser moves an index through the tokens: a 40,000-term chain
    parses in well under a second, where one that copied the rest of the
    token list at each step would take about 14 s."""
    n = 40_000
    start = time.perf_counter()
    doc = dg.parse("sys x classical 2\ngen f : x -> x\n" + " ; ".join(["f"] * n) + "\n")
    assert time.perf_counter() - start < 3
    assert doc.expr.op == ";" and len(doc.expr.items) == n
    assert doc.expr.items[-1].span == (3, 4 * n - 3)


def test_matrix_literals_nest_at_most_their_depth():
    from catprob.bell import ScenarioError
    from catprob.scenarios import parse_nested

    assert parse_nested("[[1, 2], [3]]") == [["1", "2"], ["3"]]
    assert parse_nested("[1, 2]", depth=1) == ["1", "2"]
    for src, depth, offset in [("[[[1]]]", 2, 2), ("[" * 5000 + "]" * 5000, 2, 2), ("[[1]]", 1, 1)]:
        with pytest.raises(ScenarioError, match=f"nested more than {depth} deep at offset {offset}$"):
            parse_nested(src, depth)


# ---------------------------------------------------------------------------
# n-ary chains against the direct fold of their operands

_SIZES = {"o": 1, "x": 2, "h": 3}


def _random_chain(op, n, rng):
    """Wires of each generator g0..g{n-1}: a path for `;`, one shared type for
    `+`, and for `*` at most four non-trivial wires so the product stays small."""
    if op == ";":
        path = [rng.choice("xh") for _ in range(n + 1)]
        return list(zip(path, path[1:]))
    if op == "+":
        return [("x", "h")] * n
    wide = set(rng.sample(range(n), min(n, 4)))
    return [(rng.choice("ox"), rng.choice("ox")) if i in wide else ("o", "o") for i in range(n)]


@pytest.mark.parametrize("op", dg._OPS)
def test_chains_are_left_folds_of_their_operands(op):
    rng = random.Random(f"chain {op}")
    objs = {w: mc.obj_of_size(k) for w, k in _SIZES.items()}
    fold = {";": lambda acc, v: mc.compose(v, acc), "*": mc.tensor, "+": mc.madd}[op]
    for _ in range(10):
        n = rng.randint(2, 30)
        types = _random_chain(op, n, rng)
        decls = "".join(f"sys {w} classical {k}\n" for w, k in _SIZES.items())
        decls += "".join(f"gen g{i} : {a} -> {b}\n" for i, (a, b) in enumerate(types))
        doc = dg.parse(decls + f" {op} ".join(f"g{i}" for i in range(n)))
        assert doc.expr == dg.Chain(op, tuple(dg.Gen(f"g{i}") for i in range(n)))
        gens = [mc.random_morphism(B.sr, objs[a], objs[b], rng) for a, b in types]
        want = gens[0]
        for g in gens[1:]:
            want = fold(want, g)
        v = dg.run_document(doc, B, {f"g{i}": g for i, g in enumerate(gens)})
        assert v == want


def test_the_leftmost_unbound_generator_is_named():
    doc = dg.parse("sys x classical 2\ngen f : x -> x\ngen g : x -> x\nid[x] * id[x] + (f ; g) * id[x]")
    with pytest.raises(dg.DiagramTypeError, match="line 4, col 18: unbound generator 'f'"):
        dg.run_document(doc, B)
