"""A textual string-diagram DSL: parse, typecheck, evaluate.

Grammar (EBNF):

    program  = {decl} expr
    decl     = "gen" NAME ":" wirelist "->" wirelist ["=" matrixlit]
             | "sys" NAME ("classical" | "quantum") INT
    expr     = sumexpr
    sumexpr  = seqexpr {"+" seqexpr}
    seqexpr  = parexpr {";" parexpr}
    parexpr  = atom {"*" atom}
    atom     = NAME | "id[" wires "]" | "sw[" wire "," wire "]"
             | "disc[" wire "]" | "state[" wire "," LABEL "]"
             | "effect[" wire "," LABEL "]" | scalar "." atom | "(" expr ")"

`;` composes left to right (diagram order), `*` is parallel composition and
binds tighter than `;`, `+` binds loosest. Scalars are rational literals.
Declarations each live on one line; the expression is everything after them.

All three operators are associative, so a run of one operator is a single
n-ary `Chain` node, `f1 ; ... ; fn` included, not a nested tree; a chain is
nested in another only through brackets. Recursion over the tree therefore
follows bracket and scalar nesting, which the parser caps at `_MAX_NESTING`,
never chain length.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .matcat import Morphism, ShapeError
from .scenarios import parse_nested
from .semirings import get_semiring


class DiagramSyntaxError(ValueError):
    pass


class DiagramTypeError(TypeError):
    pass


# ---------------------------------------------------------------------------
# declarations


@dataclass(frozen=True)
class SysDecl:
    name: str
    kind: str  # "classical" | "quantum"
    size: int

    @property
    def labels(self) -> tuple:
        return tuple(str(k) for k in range(self.size))


@dataclass(frozen=True)
class GenDecl:
    name: str
    dom: tuple  # sys names
    cod: tuple
    matrix: Optional[tuple] = None  # nested literal strings, classical only


@dataclass(frozen=True)
class Declarations:
    systems: dict
    generators: dict


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Node:
    span: tuple = field(compare=False, repr=False, kw_only=True, default=(0, 0))


@dataclass(frozen=True)
class Chain(Node):
    op: str  # one of _OPS
    items: tuple  # at least two operands


@dataclass(frozen=True)
class Scale(Node):
    scalar: str
    term: Node


@dataclass(frozen=True)
class Gen(Node):
    name: str


@dataclass(frozen=True)
class Id(Node):
    wires: tuple


@dataclass(frozen=True)
class Swap(Node):
    a: str
    b: str


@dataclass(frozen=True)
class Disc(Node):
    wire: str


@dataclass(frozen=True)
class State(Node):
    wire: str
    label: str


@dataclass(frozen=True)
class Effect(Node):
    wire: str
    label: str


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<num>-?\d+(/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9']*)
  | (?P<sym>->|[;*+.()\[\],:=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(src: str):
    toks = []
    for ln, line in enumerate(src.splitlines()):
        pos = 0
        while pos < len(line):
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise DiagramSyntaxError(f"line {ln + 1}, col {pos + 1}: bad character {line[pos]!r}")
            pos = m.end()
            if m.lastgroup == "ws":
                continue
            toks.append(Tok(m.lastgroup, m.group(), ln + 1, m.start() + 1))
    return toks


# ---------------------------------------------------------------------------
# parser


@dataclass
class Document:
    decls: Declarations
    expr: Node
    source: str


_DECL_RE = re.compile(r"^\s*(gen|sys)\b")


def parse(src: str) -> Document:
    """Parse a full DSL document (declarations, then one expression)."""
    systems = {}
    generators = {}
    expr_lines = []
    for ln, line in enumerate(src.splitlines()):
        bare = line.split("#", 1)[0]
        if _DECL_RE.match(bare):
            _parse_decl(bare, ln + 1, systems, generators)
            expr_lines.append("")
        else:
            expr_lines.append(bare)
    expr_src = "\n".join(expr_lines)
    if not expr_src.strip():
        raise DiagramSyntaxError("document has no expression")
    return Document(Declarations(systems, generators), parse_expr(expr_src), src)


def parse_expr(src: str) -> Node:
    toks = _lex(src)
    node, i = _parse_chain(toks, 0, 0)
    if i < len(toks):
        t = toks[i]
        raise DiagramSyntaxError(f"line {t.line}, col {t.col}: unexpected {t.text!r}")
    return node


def _parse_decl(line: str, ln: int, systems: dict, generators: dict):
    parts = line.split(None, 1)
    if parts[0] == "sys":
        m = re.match(r"^sys\s+(\w+)\s+(classical|quantum)\s+(\d+)\s*$", line.strip())
        if not m:
            raise DiagramSyntaxError(f"line {ln}: malformed sys declaration")
        name = m.group(1)
        if name in systems:
            raise DiagramSyntaxError(f"line {ln}: duplicate sys declaration {name!r}")
        systems[name] = SysDecl(name, m.group(2), int(m.group(3)))
        return
    m = re.match(r"^gen\s+(\w+)\s*:\s*([^-=]*)->\s*([^=]*?)\s*(?:=\s*(\[.*\]))?\s*$", line.strip())
    if not m:
        raise DiagramSyntaxError(f"line {ln}: malformed gen declaration")
    name = m.group(1)
    if name in generators:
        raise DiagramSyntaxError(f"line {ln}: duplicate gen declaration {name!r}")
    dom = tuple(w for w in re.split(r"[,\s]+", m.group(2).strip()) if w)
    cod = tuple(w for w in re.split(r"[,\s]+", m.group(3).strip()) if w)
    matrix = parse_nested(m.group(4)) if m.group(4) else None
    generators[name] = GenDecl(name, dom, cod, _freeze(matrix))


def _freeze(x):
    if isinstance(x, list):
        return tuple(_freeze(v) for v in x)
    return x


_MAX_NESTING = 100  # parentheses and scalar prefixes: well inside the recursion limit
_OPS = ("+", ";", "*")  # chain operators, loosest first


def _parse_chain(toks, i, depth, level=0):
    """A chain of `_OPS[level]` whose operands bind tighter, read from
    `toks[i]` on; one operand alone is returned as it is. Returns the node
    and the index of the first token after it, as every parse step does."""
    items = []
    while True:
        if level + 1 < len(_OPS):
            node, i = _parse_chain(toks, i, depth, level + 1)
        else:
            node, i = _parse_atom(toks, i, depth)
        items.append(node)
        if i == len(toks) or toks[i].text != _OPS[level]:
            break
        i += 1
    if len(items) == 1:
        return node, i
    return Chain(_OPS[level], tuple(items), span=items[0].span), i


def _expect(toks, i, text):
    if i == len(toks) or toks[i].text != text:
        where = f"line {toks[i].line}, col {toks[i].col}" if i < len(toks) else "end of input"
        got = repr(toks[i].text) if i < len(toks) else "end of input"
        raise DiagramSyntaxError(f"{where}: expected {text!r}, got {got}")
    return i + 1


def _parse_atom(toks, i, depth):
    if i == len(toks):
        raise DiagramSyntaxError("unexpected end of input")
    t = toks[i]
    sp = (t.line, t.col)
    if depth == _MAX_NESTING and (t.kind == "num" or t.text == "("):
        raise DiagramSyntaxError(f"line {t.line}, col {t.col}: nested more than {_MAX_NESTING} deep")
    if t.kind == "num":  # scalar "." atom
        inner, i = _parse_atom(toks, _expect(toks, i + 1, "."), depth + 1)
        return Scale(t.text, inner, span=sp), i
    if t.text == "(":
        inner, i = _parse_chain(toks, i + 1, depth + 1)
        return inner, _expect(toks, i, ")")
    if t.kind == "name" and t.text in ("id", "sw", "disc", "state", "effect"):
        i = _expect(toks, i + 1, "[")
        args = []
        while i < len(toks) and toks[i].text != "]":
            if toks[i].kind not in ("name", "num"):
                raise DiagramSyntaxError(
                    f"line {toks[i].line}, col {toks[i].col}: bad argument {toks[i].text!r}"
                )
            args.append(toks[i].text)
            i += 1
            if i < len(toks) and toks[i].text == ",":
                i += 1
        i = _expect(toks, i, "]")
        if t.text == "id":
            return Id(tuple(args), span=sp), i
        if t.text == "sw":
            if len(args) != 2:
                raise DiagramSyntaxError(f"line {t.line}: sw takes exactly two wires")
            return Swap(args[0], args[1], span=sp), i
        if t.text == "disc":
            if len(args) != 1:
                raise DiagramSyntaxError(f"line {t.line}: disc takes exactly one wire")
            return Disc(args[0], span=sp), i
        if len(args) != 2:
            raise DiagramSyntaxError(f"line {t.line}: {t.text} takes a wire and a label")
        cls = State if t.text == "state" else Effect
        return cls(args[0], args[1], span=sp), i
    if t.kind == "name":
        return Gen(t.text, span=sp), i + 1
    raise DiagramSyntaxError(f"line {t.line}, col {t.col}: unexpected {t.text!r}")


# ---------------------------------------------------------------------------
# pretty printer (inverse of parse on ASTs, modulo spans)


def pretty(node: Node) -> str:
    return _pp(node, 0)


def _pp(node: Node, level: int) -> str:
    # level: the index in _OPS of the enclosing chain's operator plus one
    # (0 at top level, len(_OPS) under a scalar); a chain whose operator
    # binds no tighter than its parent's is bracketed
    if isinstance(node, Chain):
        i = _OPS.index(node.op)
        s = f" {node.op} ".join(_pp(item, i + 1) for item in node.items)
        return f"({s})" if level > i else s
    if isinstance(node, Scale):
        return f"{node.scalar} . {_pp(node.term, len(_OPS))}"
    if isinstance(node, Gen):
        return node.name
    if isinstance(node, Id):
        return f"id[{','.join(node.wires)}]"
    if isinstance(node, Swap):
        return f"sw[{node.a},{node.b}]"
    if isinstance(node, Disc):
        return f"disc[{node.wire}]"
    if isinstance(node, State):
        return f"state[{node.wire},{node.label}]"
    if isinstance(node, Effect):
        return f"effect[{node.wire},{node.label}]"
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# typechecker


def typecheck(node: Node, decls: Declarations) -> tuple:
    """The (dom, cod) wire lists of the expression; raise on wire mismatches."""
    sysd = decls.systems

    def sys_of(name, node):
        if name not in sysd:
            raise DiagramTypeError(f"{_at(node)}: undeclared system {name!r}")
        return sysd[name]

    def go(n: Node) -> tuple:
        if isinstance(n, Chain):
            dom, cod = go(n.items[0])
            for item in n.items[1:]:
                d, c = go(item)
                if n.op == "*":
                    dom, cod = dom + d, cod + c
                elif n.op == ";":
                    if cod != d:
                        raise DiagramTypeError(
                            f"{_at(item)}: cannot compose: left produces {_wl(cod)}, "
                            f"right consumes {_wl(d)}"
                        )
                    cod = c
                elif (dom, cod) != (d, c):
                    raise DiagramTypeError(
                        f"{_at(item)}: summands have different types: "
                        f"{_wl(dom)}->{_wl(cod)} vs {_wl(d)}->{_wl(c)}"
                    )
            return dom, cod
        if isinstance(n, Scale):
            return go(n.term)
        if isinstance(n, Gen):
            if n.name not in decls.generators:
                raise DiagramTypeError(f"{_at(n)}: undeclared generator {n.name!r}")
            g = decls.generators[n.name]
            for w in g.dom + g.cod:
                sys_of(w, n)
            return g.dom, g.cod
        if isinstance(n, Id):
            for w in n.wires:
                sys_of(w, n)
            return n.wires, n.wires
        if isinstance(n, Swap):
            sys_of(n.a, n), sys_of(n.b, n)
            return (n.a, n.b), (n.b, n.a)
        if isinstance(n, Disc):
            sys_of(n.wire, n)
            return (n.wire,), ()
        if isinstance(n, (State, Effect)):
            s = sys_of(n.wire, n)
            if s.kind != "classical":
                raise DiagramTypeError(
                    f"{_at(n)}: {type(n).__name__.lower()} by label needs a classical wire"
                )
            if n.label not in s.labels:
                raise DiagramTypeError(f"{_at(n)}: {n.label!r} is not a label of {n.wire}")
            if isinstance(n, State):
                return (), (n.wire,)
            return (n.wire,), ()
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def _at(n: Node) -> str:
    return f"line {n.span[0]}, col {n.span[1]}"


def _wl(names: tuple) -> str:
    return "(" + ",".join(names) + ")" if names else "1"


# ---------------------------------------------------------------------------
# evaluator


def evaluate(node: Node, backend, decls: Declarations, bindings: dict):
    """Map an expression that passed `typecheck` to a backend morphism.

    `bindings` maps generator names to backend morphisms; generators with an
    inline matrix literal are materialised on demand (classical backend only).
    Each chain is a left fold, so `f ; g ; h` is compose(h, compose(g, f)).
    """
    sys_objs = _sys_objs(backend, decls)
    join = {";": lambda acc, v: backend.compose(v, acc), "*": backend.tensor, "+": backend.add}

    def go(n: Node):
        if isinstance(n, Chain):
            acc = go(n.items[0])
            for item in n.items[1:]:
                acc = join[n.op](acc, go(item))
            return acc
        if isinstance(n, Scale):
            s = backend.sr.parse(n.scalar)
            return backend.scale(s, go(n.term))
        if isinstance(n, Gen):
            g = decls.generators[n.name]
            if n.name in bindings:
                v = bindings[n.name]
            elif g.matrix is None:
                raise DiagramTypeError(f"{_at(n)}: unbound generator {n.name!r}")
            elif backend.kind != "classical":
                raise DiagramTypeError(
                    f"{_at(n)}: inline generator matrices are classical-only; bind {n.name!r} explicitly"
                )
            else:
                v = _literal_morphism(backend, sys_objs, g, g.matrix)
            want = (_obj_of(backend, sys_objs, g.dom), _obj_of(backend, sys_objs, g.cod))
            if (backend.dom(v), backend.cod(v)) != want:
                raise DiagramTypeError(
                    f"{_at(n)}: binding for {n.name!r} has the wrong shape"
                )
            return v
        if isinstance(n, Id):
            return backend.identity(_obj_of(backend, sys_objs, n.wires))
        if isinstance(n, Swap):
            return backend.swap(sys_objs[n.a], sys_objs[n.b])
        if isinstance(n, Disc):
            return backend.discard(sys_objs[n.wire])
        if isinstance(n, State):
            return backend.delta_state(sys_objs[n.wire], n.label)
        if isinstance(n, Effect):
            return backend.point_effect(sys_objs[n.wire], n.label)
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def _sys_objs(backend, decls: Declarations) -> dict:
    """The backend object of each declared system."""
    return {
        name: backend.classical_obj(s.labels) if s.kind == "classical" else backend.quantum_obj(s.size)
        for name, s in decls.systems.items()
    }


def _obj_of(backend, sys_objs: dict, names: tuple):
    """The backend object of a wire list of declared system names."""
    o = backend.unit
    for w in names:
        o = backend.obj_tensor(o, sys_objs[w])
    return o


def _literal_morphism(backend, sys_objs: dict, gen, nested):
    """The classical morphism of generator `gen` from nested literal rows."""
    sr = backend.sr
    entries = tuple(tuple(sr.parse(x) for x in row) for row in nested)
    dom, cod = (_obj_of(backend, sys_objs, names) for names in (gen.dom, gen.cod))
    return Morphism(dom, cod, entries, sr)


def run_document(doc: Document, backend, bindings: dict = None):
    typecheck(doc.expr, doc.decls)
    return evaluate(doc.expr, backend, doc.decls, bindings or {})


# ---------------------------------------------------------------------------
# bindings files


def parse_bindings(src: str, tolerance: float):
    """Parse a bindings file: `semiring <id>` then `gen NAME = [[..]]` lines.

    Returns (semiring named by the file or None, dict of generator name ->
    nested literal); `tolerance` applies if the file names complex-f64.
    Shapes are fixed by the document's declarations at evaluation time.
    """
    raw = {}
    sr = None
    for ln, line in enumerate(src.splitlines()):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        if key == "semiring":
            sr = get_semiring(rest, tolerance=tolerance)
        elif key == "gen":
            name, _, lit = rest.partition("=")
            raw[name.strip()] = parse_nested(lit.strip())
        else:
            raise DiagramSyntaxError(f"bindings line {ln + 1}: unrecognised {line!r}")
    return sr, raw


def load_bindings(src: str, backend):
    """The generator literals of a bindings file whose semiring line, if
    any, names the backend's semiring."""
    tol = backend.sr.tolerance  # an exact backend matches no complex-f64, so any will do
    sr, raw = parse_bindings(src, 0.0 if tol is None else tol)
    if sr is not None and sr is not backend.sr:
        raise DiagramTypeError(f"bindings are over {sr.id!r}, backend is {backend.sr.id!r}")
    return raw


def bind_generators(doc: Document, backend, raw: dict):
    """Materialise raw nested-literal bindings as backend morphisms."""
    if backend.kind != "classical":
        raise DiagramTypeError("literal bindings files are classical-only")
    sys_objs = _sys_objs(backend, doc.decls)
    out = {}
    for name, nested in raw.items():
        if name not in doc.decls.generators:
            raise DiagramTypeError(f"binding for undeclared generator {name!r}")
        out[name] = _literal_morphism(backend, sys_objs, doc.decls.generators[name], nested)
    return out
