"""Bell-type measurement scenarios and no-signalling empirical models.

A scenario holds, per party, a classical choice system, a classical outcome
system, a share of the global system, and a normalised measurement process
choices (x) system -> outcomes. Evaluating the scenario over every joint
choice produces an empirical model: a table of R-distributions over joint
outcomes, which is verified (not assumed) to be no-signalling.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from .matcat import ShapeError
from .semirings import SemiringError


class ScenarioError(ShapeError):
    pass


class InvalidScenario(ScenarioError):
    """A well-formed scenario whose evaluation fails a semantic check."""


@dataclass(frozen=True)
class Party:
    name: str
    choices: Any  # classical backend object
    outcomes: Any  # classical backend object
    system: Any  # backend object (this party's share of the state)
    measurement: Any  # backend morphism choices (x) system -> outcomes


@dataclass(frozen=True)
class Scenario:
    backend: Any
    parties: tuple
    shared_state: Any  # backend state on the tensor of all party systems


def _labels(backend, clobj):
    if backend.kind == "classical":
        return clobj.labels
    return clobj[0].labels


@dataclass(frozen=True)
class EmpiricalModel:
    party_names: tuple
    choice_labels: tuple  # per party, tuple of choice labels
    outcome_labels: tuple  # per party, tuple of outcome labels
    contexts: tuple  # tuples of per-party choice labels
    table: dict  # context -> {joint outcome tuple: R element}
    sr: Any  # the scalar semiring R

    def row(self, context):
        return self.table[tuple(context)]


def validate_scenario(s: Scenario) -> list:
    """Itemised report of normalisation/invariance failures (empty = valid)."""
    b = s.backend
    problems = []
    if not b.is_normalised(s.shared_state):
        problems.append("shared state is not normalised")
    total = None
    for p in s.parties:
        if not b.is_normalised(p.measurement):
            problems.append(f"measurement of party {p.name} is not normalised")
        want_dom = b.obj_tensor(p.choices, p.system)
        if b.dom(p.measurement) != want_dom or b.cod(p.measurement) != p.outcomes:
            problems.append(f"measurement of party {p.name} has the wrong shape")
        total = p.system if total is None else b.obj_tensor(total, p.system)
    if total is not None and b.dom(s.shared_state) != b.unit:
        problems.append("shared state is not a state (nontrivial domain)")
    if total is not None and b.cod(s.shared_state) != total:
        problems.append("shared state does not live on the tensor of party systems")
    return problems


def _fix_choice(b, party: Party, m_label):
    """The per-choice process system -> outcomes, via a deterministic control."""
    delta = b.delta_state(party.choices, m_label)
    return b.compose(
        party.measurement, b.tensor(delta, b.identity(party.system))
    )


def evaluate(s: Scenario) -> EmpiricalModel:
    """The empirical model of the scenario: one R-distribution per context."""
    problems = validate_scenario(s)
    if problems:
        raise ScenarioError("invalid scenario: " + "; ".join(problems))
    b = s.backend
    choice_labels = tuple(_labels(b, p.choices) for p in s.parties)
    outcome_labels = tuple(_labels(b, p.outcomes) for p in s.parties)
    joint_outcomes = None
    for p in s.parties:
        joint_outcomes = (
            p.outcomes if joint_outcomes is None else b.obj_tensor(joint_outcomes, p.outcomes)
        )
    table = {}
    for ctx in itertools.product(*choice_labels):
        joint = None
        for p, m in zip(s.parties, ctx):
            ch = _fix_choice(b, p, m)
            joint = ch if joint is None else b.tensor(joint, ch)
        out_state = b.compose(joint, s.shared_state)
        try:
            dist = b.distribution(out_state, joint_outcomes)
        except SemiringError as exc:
            raise InvalidScenario(f"context {'|'.join(map(_fmt_label, ctx))}, {exc}") from None
        table[ctx] = _split_joint_labels(dist, outcome_labels)
    return EmpiricalModel(
        party_names=tuple(p.name for p in s.parties),
        choice_labels=choice_labels,
        outcome_labels=outcome_labels,
        contexts=tuple(itertools.product(*choice_labels)),
        table=table,
        sr=b.scalar_ring,
    )


def _split_joint_labels(dist: dict, outcome_labels: tuple) -> dict:
    """Re-key a joint distribution by per-party outcome label tuples."""
    out = {}
    for joint in itertools.product(*outcome_labels):
        flat = tuple(a for lab in joint for a in lab)
        if flat not in dist:
            raise ScenarioError(f"joint outcome {flat!r} missing from the evaluated distribution")
        out[joint] = dist[flat]
    return out


@dataclass(frozen=True)
class NoSignallingReport:
    ok: bool
    rows_normalised: bool
    violation: Optional[tuple] = None  # (party, ctx_a, ctx_b, outcome, val_a, val_b)
    max_discrepancy: float = 0.0


def no_signalling_check(e: EmpiricalModel) -> NoSignallingReport:
    """Exact verification of both empirical-model conditions.

    (i) each row is an R-distribution; (ii) for every party and every pair of
    contexts differing only at that party, the other parties' marginals agree.
    """
    sr = e.sr
    rows_ok = all(sr.eq(sr.sum(row.values()), sr.one) for row in e.table.values())
    n = len(e.party_names)
    worst = 0.0
    for j in range(n):
        for ctx_a, ctx_b in itertools.combinations(e.contexts, 2):
            if any(i != j and ctx_a[i] != ctx_b[i] for i in range(n)):
                continue
            if ctx_a[j] == ctx_b[j]:
                continue
            marg_a = _marginal_without(e, ctx_a, j)
            marg_b = _marginal_without(e, ctx_b, j)
            for rest, va in marg_a.items():
                vb = marg_b[rest]
                if not sr.eq(va, vb):
                    return NoSignallingReport(
                        False, rows_ok, (e.party_names[j], ctx_a, ctx_b, rest, va, vb), _disc(sr, va, vb)
                    )
                worst = max(worst, _disc(sr, va, vb))
    return NoSignallingReport(rows_ok, rows_ok, None, worst)


def _disc(sr, a, b) -> float:
    if sr.tolerance is None:
        return 0.0
    return float(abs(a - b))


def _marginal_without(e: EmpiricalModel, ctx, j: int) -> dict:
    """Marginalise the row at ctx over party j's outcomes."""
    sr = e.sr
    out = {}
    for joint, v in e.table[tuple(ctx)].items():
        rest = tuple(o for i, o in enumerate(joint) if i != j)
        out[rest] = sr.add(out.get(rest, sr.zero), v)
    return out


def no_signalling_from_future(backend, f, k_obj, y_obj, g) -> bool:
    """Causality check: the classical output of a test ignores later processes.

    f: H -> K (x) Y with classical Y; g: K -> L normalised. Both sides are the
    Y-marginal, computed with and without g applied.
    """
    b = backend
    if b.dom(g) != k_obj:
        raise ShapeError("g must consume the non-classical output of f")
    l_obj = b.cod(g)
    lhs = b.compose(b.tensor(g, b.identity(y_obj)), f)
    lhs = b.compose(b.swap(l_obj, y_obj), lhs)
    lhs = b.compose(b.tensor(b.identity(y_obj), b.discard(l_obj)), lhs)
    rhs = b.compose(b.swap(k_obj, y_obj), f)
    rhs = b.compose(b.tensor(b.identity(y_obj), b.discard(k_obj)), rhs)
    return b.equal(lhs, rhs)


# ---------------------------------------------------------------------------
# export formats


def export_empirical_model(e: EmpiricalModel, fmt: str = "table") -> str:
    """Render the model as a human table or a line-oriented machine format."""
    if fmt == "table":
        return _export_table(e)
    if fmt == "machine":
        return _export_machine(e)
    raise ScenarioError(f"unsupported export format {fmt!r}")


def _fmt_label(lab) -> str:
    return ".".join(map(str, lab)) if isinstance(lab, tuple) else str(lab)


def _export_table(e: EmpiricalModel) -> str:
    outcomes = list(itertools.product(*e.outcome_labels))
    headers = ["context"] + ["|".join(_fmt_label(o) for o in joint) for joint in outcomes]
    lines = ["\t".join(headers)]
    for ctx in e.contexts:
        row = e.table[ctx]
        cells = ["|".join(_fmt_label(c) for c in ctx)]
        cells += [e.sr.fmt(row[joint]) for joint in outcomes]
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def _export_machine(e: EmpiricalModel) -> str:
    lines = [f"semiring {e.sr.id}", f"parties {' '.join(e.party_names)}"]
    for name, chs, outs in zip(e.party_names, e.choice_labels, e.outcome_labels):
        lines.append(f"choices {name} " + " ".join(_fmt_label(c) for c in chs))
        lines.append(f"outcomes {name} " + " ".join(_fmt_label(o) for o in outs))
    outcomes = list(itertools.product(*e.outcome_labels))
    for ctx in e.contexts:
        row = e.table[ctx]
        key = "|".join(_fmt_label(c) for c in ctx)
        vals = " ".join(e.sr.fmt(row[joint]) for joint in outcomes)
        lines.append(f"row {key} {vals}")
    return "\n".join(lines) + "\n"
