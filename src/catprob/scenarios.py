"""Reading Bell-scenario files (.scn).

Line-oriented structured text. Global keys first, then one block per party:

    semiring gauss-rat
    backend quantum            # or classical
    state density [[1/2,0,0,1/2],[0,0,0,0],[0,0,0,0],[1/2,0,0,1/2]]
    party A
    choices 2                  # label count, or an explicit label list
    outcomes 2
    dim 2                      # quantum system; classical parties use `size`
    kraus 0 [[3/5,4/5]] [[-4/5,3/5]]   # per choice: one Kraus block per outcome
    kraus 1 [[1,0]] [[0,1]]

Classical parties give `size n` and `matrix [[..]]` (outcomes by
choices*system, row-major with the choice index major). Classical states use
`state vector [..]`; quantum states take `state density [[..]]` over S or
`state kraus [[..]] [[..]]` (a column per Kraus element).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import matcat, quantum
from .backend import ClassicalBackend, QuantumBackend
from .bell import Party, Scenario, ScenarioError
from .matcat import Morphism
from .semirings import SemiringError, get_semiring


def parse_nested(src: str, depth: int = 2):
    """Parse a bracketed literal, at most `depth` lists deep, into nested lists of strings."""
    src = src.strip()
    pos = 0

    def parse(i, level):
        while i < len(src) and src[i].isspace():
            i += 1
        if i >= len(src):
            raise ScenarioError("unexpected end of matrix literal")
        if src[i] == "[":
            if level == depth:
                raise ScenarioError(f"matrix literal nested more than {depth} deep at offset {i}")
            items = []
            i += 1
            while True:
                while i < len(src) and src[i].isspace():
                    i += 1
                if i < len(src) and src[i] == "]":
                    return items, i + 1
                item, i = parse(i, level + 1)
                items.append(item)
                while i < len(src) and src[i].isspace():
                    i += 1
                if i < len(src) and src[i] == ",":
                    i += 1
                elif i < len(src) and src[i] == "]":
                    return items, i + 1
                else:
                    raise ScenarioError(f"bad matrix literal near offset {i}")
        j = i
        while j < len(src) and src[j] not in ",]":
            j += 1
        return src[i:j].strip(), j

    out, pos = parse(pos, 0)
    if src[pos:].strip():
        raise ScenarioError("trailing junk after matrix literal")
    return out


def split_blocks(src: str):
    """Top-level bracketed chunks on one line, e.g. `[[..]] [[..]]`, with
    nothing but whitespace between them."""
    chunks = []
    depth = 0
    start = 0
    for i, ch in enumerate(src):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            if depth == 0:
                raise ScenarioError(f"unmatched ']' at offset {i}")
            depth -= 1
            if depth == 0:
                chunks.append(src[start:i + 1])
        elif depth == 0 and not ch.isspace():
            raise ScenarioError(f"unexpected {ch!r} outside brackets at offset {i}")
    if depth != 0:
        raise ScenarioError("unbalanced brackets")
    return chunks


def _labels_spec(args) -> tuple:
    if len(args) == 1 and args[0].isdigit():
        return tuple(str(k) for k in range(int(args[0])))
    return tuple(args)


def _tolerance(tok: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise SemiringError(f"bad tolerance: {tok!r}") from None


def _count(key: str, tok: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ScenarioError(f"`{key}` needs an integer, got {tok!r}") from None


@dataclass
class _PartySpec:
    name: str
    choices: tuple = ()
    outcomes: tuple = ()
    dim: int = 0
    size: int = 0
    kraus: dict = None  # choice label -> list of blocks (nested string lists)
    matrix: list = None


def parse_scenario_text(src: str) -> Scenario:
    srid = None
    backend_kind = "classical"
    state_kind = None
    state_blocks = None
    specs = []
    cur = None
    tolerance = 1e-9

    for raw in src.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key == "semiring":
            srid = rest
        elif key == "tolerance":
            tolerance = _tolerance(rest)
        elif key == "backend":
            backend_kind = rest
        elif key == "state":
            kind, _, lit = rest.partition(" ")
            state_kind = kind
            state_blocks = split_blocks(lit)
            if not state_blocks:
                raise ScenarioError(f"`state {kind}` needs a bracketed literal")
            if kind in ("vector", "density") and len(state_blocks) > 1:
                raise ScenarioError(f"`state {kind}` takes one bracketed literal, got {len(state_blocks)}")
        elif key == "party":
            cur = _PartySpec(name=rest or f"P{len(specs)}", kraus={})
            specs.append(cur)
        elif cur is not None and key == "choices":
            cur.choices = _labels_spec(rest.split())
        elif cur is not None and key == "outcomes":
            cur.outcomes = _labels_spec(rest.split())
        elif cur is not None and key == "dim":
            cur.dim = _count(key, rest)
        elif cur is not None and key == "size":
            cur.size = _count(key, rest)
        elif cur is not None and key == "kraus":
            choice, _, lit = rest.partition(" ")
            cur.kraus[choice] = [parse_nested(b) for b in split_blocks(lit)]
        elif cur is not None and key == "matrix":
            cur.matrix = parse_nested(rest)
        else:
            raise ScenarioError(f"unrecognised scenario line: {raw!r}")

    if srid is None:
        raise ScenarioError("scenario file must declare a semiring")
    if not specs:
        raise ScenarioError("scenario file must declare a party")
    sr = get_semiring(srid, tolerance=tolerance)
    if backend_kind == "quantum":
        return _build_quantum(QuantumBackend(sr), specs, state_kind, state_blocks)
    if backend_kind == "classical":
        return _build_classical(ClassicalBackend(sr), specs, state_kind, state_blocks)
    raise ScenarioError(f"unknown backend {backend_kind!r}")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        return parse_scenario_text(fh.read())


def _parse_matrix(sr, nested):
    return [[sr.parse(x) for x in row] for row in nested]


def _build_quantum(b: QuantumBackend, specs, state_kind, state_blocks) -> Scenario:
    sr = b.sr
    parties = []
    wires = []
    for spec in specs:
        if not spec.dim:
            raise ScenarioError(f"party {spec.name}: quantum parties need `dim`")
        h = quantum.QWire(spec.dim)
        wires.append(h)
        m_obj = b.classical_obj(spec.choices)
        o_obj = b.classical_obj(spec.outcomes)
        meas = _measurement_from_kraus(b, spec, m_obj[0], h, o_obj[0])
        parties.append(Party(spec.name, m_obj, o_obj, (h,), meas))

    if state_kind == "density":
        rho = _parse_matrix(sr, parse_nested(state_blocks[0]))
        state = density_to_state(sr, tuple(wires), rho)
    elif state_kind == "kraus":
        cols = [_parse_matrix(sr, parse_nested(blk)) for blk in state_blocks]
        fam = quantum.kraus_family(sr, (), tuple(wires), cols)
        state = quantum.cpm_from_kraus(fam)
    else:
        raise ScenarioError("quantum scenarios need `state density ...` or `state kraus ...`")
    return Scenario(b, tuple(parties), state)


def _measurement_from_kraus(b: QuantumBackend, spec, m_wire, h_wire, o_wire):
    """Assemble choices (x) system -> outcomes from per-choice Kraus blocks."""
    sr = b.sr
    if set(spec.kraus) != set(spec.choices):
        raise ScenarioError(f"party {spec.name}: need one kraus line per choice")
    dom = (m_wire, h_wire)
    cod = (o_wire,)
    rows = [[sr.zero] * quantum.doubled_dim(dom) for _ in range(quantum.doubled_dim(cod))]
    effects = []  # per choice, per outcome: the effect's Kraus rows, each of length d
    for choice in spec.choices:
        blocks = spec.kraus[choice]
        if len(blocks) != o_wire.size:
            raise ScenarioError(
                f"party {spec.name}, choice {choice}: expected {o_wire.size} Kraus blocks"
            )
        effects.append([_parse_matrix(sr, block) for block in blocks])
    ys, yps = quantum._plain_pairs(dom)
    for c in quantum._live(dom):  # diagonal on the classical choice wire
        (mi, x), xp = divmod(ys[c], h_wire.dim), yps[c] % h_wire.dim
        for r, k in zip(quantum._diagonal(cod), effects[mi]):
            rows[r][c] = sr.sum(sr.mul(ke[x], sr.star(ke[xp])) for ke in k)
    return quantum.Superoperator(dom, cod, tuple(map(tuple, rows)), sr)


def density_to_state(sr, wires: tuple, rho) -> quantum.Superoperator:
    """The doubled state (vec of a density matrix) on the given quantum wires."""
    d = quantum.plain_dim(wires)
    if len(rho) != d or any(len(r) != d for r in rho):
        raise ScenarioError("density matrix shape does not match the wire dimensions")
    col = tuple((rho[y][yp],) for y, yp in zip(*quantum._plain_pairs(tuple(wires))))
    return quantum.Superoperator((), tuple(wires), col, sr)


def _build_classical(b: ClassicalBackend, specs, state_kind, state_blocks) -> Scenario:
    sr = b.sr
    parties = []
    total = None
    for spec in specs:
        if not spec.size:
            raise ScenarioError(f"party {spec.name}: classical parties need `size`")
        h = matcat.obj_of_size(spec.size)
        m_obj = b.classical_obj(spec.choices)
        o_obj = b.classical_obj(spec.outcomes)
        if spec.matrix is None:
            raise ScenarioError(f"party {spec.name}: classical parties need `matrix`")
        entries = _parse_matrix(sr, spec.matrix)
        meas = Morphism(matcat.obj_tensor(m_obj, h), o_obj, tuple(map(tuple, entries)), sr)
        parties.append(Party(spec.name, m_obj, o_obj, h, meas))
        total = h if total is None else matcat.obj_tensor(total, h)

    if state_kind != "vector":
        raise ScenarioError("classical scenarios need `state vector [...]`")
    weights = [sr.parse(x) for x in parse_nested(state_blocks[0], depth=1)]
    state = matcat.state(sr, total, weights)
    return Scenario(b, tuple(parties), state)
