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
class Seq(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Par(Node):
    left: Node
    right: Node


@dataclass(frozen=True)
class Sum(Node):
    left: Node
    right: Node


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
    node, rest = _parse_sum(toks)
    if rest:
        t = rest[0]
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


def _parse_sum(toks, depth=0):
    node, toks = _parse_seq(toks, depth)
    while toks and toks[0].text == "+":
        right, toks = _parse_seq(toks[1:], depth)
        node = Sum(node, right, span=(node.span[0], right.span[1]))
    return node, toks


def _parse_seq(toks, depth):
    node, toks = _parse_par(toks, depth)
    while toks and toks[0].text == ";":
        right, toks = _parse_par(toks[1:], depth)
        node = Seq(node, right, span=(node.span[0], right.span[1]))
    return node, toks


def _parse_par(toks, depth):
    node, toks = _parse_atom(toks, depth)
    while toks and toks[0].text == "*":
        right, toks = _parse_atom(toks[1:], depth)
        node = Par(node, right, span=(node.span[0], right.span[1]))
    return node, toks


def _expect(toks, text):
    if not toks or toks[0].text != text:
        where = f"line {toks[0].line}, col {toks[0].col}" if toks else "end of input"
        got = repr(toks[0].text) if toks else "end of input"
        raise DiagramSyntaxError(f"{where}: expected {text!r}, got {got}")
    return toks[1:]


def _parse_atom(toks, depth):
    if not toks:
        raise DiagramSyntaxError("unexpected end of input")
    t = toks[0]
    sp = (t.line, t.col)
    if depth == _MAX_NESTING and (t.kind == "num" or t.text == "("):
        raise DiagramSyntaxError(f"line {t.line}, col {t.col}: nested more than {_MAX_NESTING} deep")
    if t.kind == "num":  # scalar "." atom
        rest = _expect(toks[1:], ".")
        inner, rest = _parse_atom(rest, depth + 1)
        return Scale(t.text, inner, span=sp), rest
    if t.text == "(":
        inner, rest = _parse_sum(toks[1:], depth + 1)
        rest = _expect(rest, ")")
        return inner, rest
    if t.kind == "name" and t.text in ("id", "sw", "disc", "state", "effect"):
        rest = _expect(toks[1:], "[")
        args = []
        while rest and rest[0].text != "]":
            if rest[0].kind not in ("name", "num"):
                raise DiagramSyntaxError(
                    f"line {rest[0].line}, col {rest[0].col}: bad argument {rest[0].text!r}"
                )
            args.append(rest[0].text)
            rest = rest[1:]
            if rest and rest[0].text == ",":
                rest = rest[1:]
        rest = _expect(rest, "]")
        if t.text == "id":
            return Id(tuple(args), span=sp), rest
        if t.text == "sw":
            if len(args) != 2:
                raise DiagramSyntaxError(f"line {t.line}: sw takes exactly two wires")
            return Swap(args[0], args[1], span=sp), rest
        if t.text == "disc":
            if len(args) != 1:
                raise DiagramSyntaxError(f"line {t.line}: disc takes exactly one wire")
            return Disc(args[0], span=sp), rest
        if len(args) != 2:
            raise DiagramSyntaxError(f"line {t.line}: {t.text} takes a wire and a label")
        cls = State if t.text == "state" else Effect
        return cls(args[0], args[1], span=sp), rest
    if t.kind == "name":
        return Gen(t.text, span=sp), toks[1:]
    raise DiagramSyntaxError(f"line {t.line}, col {t.col}: unexpected {t.text!r}")


# ---------------------------------------------------------------------------
# pretty printer (inverse of parse on ASTs, modulo spans)


def pretty(node: Node) -> str:
    return _pp(node, 0)


def _pp(node: Node, level: int) -> str:
    # level: 0 sum context, 1 seq context, 2 par/atom context
    if isinstance(node, Sum):
        s = f"{_pp(node.left, 0)} + {_pp(node.right, 1)}"
        return f"({s})" if level > 0 else s
    if isinstance(node, Seq):
        s = f"{_pp(node.left, 1)} ; {_pp(node.right, 2)}"
        return f"({s})" if level > 1 else s
    if isinstance(node, Par):
        s = f"{_pp(node.left, 2)} * {_pp(node.right, 3)}"
        return f"({s})" if level > 2 else s
    if isinstance(node, Scale):
        return f"{node.scalar} . {_pp(node.term, 3)}"
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


@dataclass(frozen=True)
class Typed:
    node: Node
    dom: tuple  # sys names
    cod: tuple
    children: tuple


def typecheck(node: Node, decls: Declarations) -> Typed:
    """Assign dom/cod wire lists to every node; raise on wire mismatches."""
    sysd = decls.systems

    def sys_of(name, node):
        if name not in sysd:
            raise DiagramTypeError(f"{_at(node)}: undeclared system {name!r}")
        return sysd[name]

    def go(n: Node) -> Typed:
        if isinstance(n, Seq):
            l, r = go(n.left), go(n.right)
            if l.cod != r.dom:
                raise DiagramTypeError(
                    f"{_at(n.right)}: cannot compose: left produces {_wl(l.cod)}, "
                    f"right consumes {_wl(r.dom)}"
                )
            return Typed(n, l.dom, r.cod, (l, r))
        if isinstance(n, Par):
            l, r = go(n.left), go(n.right)
            return Typed(n, l.dom + r.dom, l.cod + r.cod, (l, r))
        if isinstance(n, Sum):
            l, r = go(n.left), go(n.right)
            if l.dom != r.dom or l.cod != r.cod:
                raise DiagramTypeError(
                    f"{_at(n)}: summands have different types: "
                    f"{_wl(l.dom)}->{_wl(l.cod)} vs {_wl(r.dom)}->{_wl(r.cod)}"
                )
            return Typed(n, l.dom, l.cod, (l, r))
        if isinstance(n, Scale):
            t = go(n.term)
            return Typed(n, t.dom, t.cod, (t,))
        if isinstance(n, Gen):
            if n.name not in decls.generators:
                raise DiagramTypeError(f"{_at(n)}: undeclared generator {n.name!r}")
            g = decls.generators[n.name]
            for w in g.dom + g.cod:
                sys_of(w, n)
            return Typed(n, g.dom, g.cod, ())
        if isinstance(n, Id):
            for w in n.wires:
                sys_of(w, n)
            return Typed(n, n.wires, n.wires, ())
        if isinstance(n, Swap):
            sys_of(n.a, n), sys_of(n.b, n)
            return Typed(n, (n.a, n.b), (n.b, n.a), ())
        if isinstance(n, Disc):
            sys_of(n.wire, n)
            return Typed(n, (n.wire,), (), ())
        if isinstance(n, (State, Effect)):
            s = sys_of(n.wire, n)
            if s.kind != "classical":
                raise DiagramTypeError(
                    f"{_at(n)}: {type(n).__name__.lower()} by label needs a classical wire"
                )
            if n.label not in s.labels:
                raise DiagramTypeError(f"{_at(n)}: {n.label!r} is not a label of {n.wire}")
            if isinstance(n, State):
                return Typed(n, (), (n.wire,), ())
            return Typed(n, (n.wire,), (), ())
        raise TypeError(f"unknown node {n!r}")

    return go(node)


def _at(n: Node) -> str:
    return f"line {n.span[0]}, col {n.span[1]}"


def _wl(names: tuple) -> str:
    return "(" + ",".join(names) + ")" if names else "1"


# ---------------------------------------------------------------------------
# evaluator


def evaluate(typed: Typed, backend, decls: Declarations, bindings: dict):
    """Map the typed tree to a backend morphism.

    `bindings` maps generator names to backend morphisms; generators with an
    inline matrix literal are materialised on demand (classical backend only).
    """
    sys_objs = {}
    for name, s in decls.systems.items():
        if s.kind == "classical":
            sys_objs[name] = backend.classical_obj(s.labels)
        else:
            sys_objs[name] = backend.quantum_obj(s.size)

    def gen_value(name: str, node):
        if name in bindings:
            return bindings[name]
        g = decls.generators[name]
        if g.matrix is None:
            raise DiagramTypeError(f"{_at(node)}: unbound generator {name!r}")
        if backend.kind != "classical":
            raise DiagramTypeError(
                f"{_at(node)}: inline generator matrices are classical-only; bind {name!r} explicitly"
            )
        return _literal_morphism(backend, sys_objs, g, g.matrix)

    def go(t: Typed):
        n = t.node
        if isinstance(n, Seq):
            return backend.compose(go(t.children[1]), go(t.children[0]))
        if isinstance(n, Par):
            return backend.tensor(go(t.children[0]), go(t.children[1]))
        if isinstance(n, Sum):
            return backend.add(go(t.children[0]), go(t.children[1]))
        if isinstance(n, Scale):
            s = backend.sr.parse(n.scalar)
            return backend.scale(s, go(t.children[0]))
        if isinstance(n, Gen):
            v = gen_value(n.name, n)
            want = (_obj_of(backend, sys_objs, t.dom), _obj_of(backend, sys_objs, t.cod))
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

    return go(typed)


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
    typed = typecheck(doc.expr, doc.decls)
    return evaluate(typed, backend, doc.decls, bindings or {})


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
    sys_objs = {
        name: backend.classical_obj(s.labels) for name, s in doc.decls.systems.items()
    }
    out = {}
    for name, nested in raw.items():
        if name not in doc.decls.generators:
            raise DiagramTypeError(f"binding for undeclared generator {name!r}")
        out[name] = _literal_morphism(backend, sys_objs, doc.decls.generators[name], nested)
    return out
