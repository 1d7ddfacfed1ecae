"""The command-line front door: subcommands, exit codes, reproducibility."""

import ast
import importlib
import inspect
import os
import subprocess
import sys

import pytest

from catprob.cli import main

HERE = os.path.dirname(__file__)
ROOT = os.path.join(HERE, os.pardir)
SCEN = os.path.join(ROOT, "scenarios")
CORPUS = os.path.join(ROOT, "eqcorpus")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_theory_check_positive(capsys):
    code, out, _ = run(capsys, "theory-check", "ratnn")
    assert code == 0
    assert "positive semiring: yes" in out
    assert "status: PASS" in out


def test_theory_check_reports_witness(capsys):
    code, out, _ = run(capsys, "theory-check", "rat")
    assert code == 0
    assert "positive semiring: no" in out
    assert "witness" in out


def test_theory_check_quantum_backend(capsys):
    code, out, _ = run(capsys, "theory-check", "gauss-rat", "--backend", "quantum")
    assert code == 0
    assert "quantum backend" in out


def test_theory_check_unknown_semiring(capsys):
    code, _, err = run(capsys, "theory-check", "tropical")
    assert code == 2
    assert "error:" in err


def test_eval(capsys, tmp_path):
    f = tmp_path / "d.diag"
    f.write_text("sys x classical 2\ngen f : x -> x = [[1/2, 0], [1/2, 1]]\nf ; f\n")
    code, out, _ = run(capsys, "eval", str(f))
    assert code == 0
    assert "1/4" in out and "3/4" in out


def test_eval_parse_error(capsys, tmp_path):
    f = tmp_path / "bad.diag"
    f.write_text("sys x classical 2\nid[x] ;\n")
    code, _, err = run(capsys, "eval", str(f))
    assert code == 2
    assert "error:" in err


def test_eq_equal_and_unequal(capsys, tmp_path):
    d = os.path.join(CORPUS, "id-resolution")
    code, out, _ = run(
        capsys, "eq", os.path.join(d, "lhs.diag"), os.path.join(d, "rhs.diag"),
        os.path.join(d, "bindings.txt"),
    )
    assert code == 0 and out.strip() == "equal"

    other = os.path.join(CORPUS, "normalised-absorb")
    b = tmp_path / "b.txt"
    b.write_text("semiring ratnn\ngen f = [[1/3, 0], [1/3, 1/2], [1/3, 1/4]]\n")
    code, out, _ = run(
        capsys, "eq", os.path.join(other, "lhs.diag"), os.path.join(other, "rhs.diag"), str(b)
    )
    assert code == 1
    assert out.startswith("unequal at row 0, col 1")


def test_whole_corpus_via_cli(capsys):
    for name in sorted(os.listdir(CORPUS)):
        d = os.path.join(CORPUS, name)
        code, out, _ = run(
            capsys, "eq", os.path.join(d, "lhs.diag"), os.path.join(d, "rhs.diag"),
            os.path.join(d, "bindings.txt"),
        )
        assert code == 0, f"{name}: {out}"


def test_bell_table_and_machine(capsys):
    code, out, _ = run(capsys, "bell", os.path.join(SCEN, "chsh-345.scn"))
    assert code == 0
    assert "9/50" in out
    assert "no-signalling: PASS" in out
    code, out, _ = run(
        capsys, "bell", os.path.join(SCEN, "chsh-345.scn"), "--format", "machine"
    )
    assert code == 0
    assert out.splitlines()[0] == "semiring ratnn"


def test_toyzoo(capsys):
    code, out, _ = run(capsys, "toyzoo")
    assert code == 0
    for name in ("quantum-exact", "quantum-f64", "real", "hyperbolic", "relational", "modal"):
        assert name in out
    assert "gf p" in out


TOYZOO = "\n".join([
    "theory         S            involution                   R        description",
    "-----------------------------------------------------------------------------",
    "quantum-exact  gauss-rat    complex conjugation          ratnn    ordinary quantum theory, exact Gaussian-rational amplitudes",
    "quantum-f64    complex-f64  complex conjugation          real-f64 ordinary quantum theory, double-precision amplitudes",
    "real           rat          identity                     ratnn    real quantum theory (identity involution)",
    "hyperbolic     split-rat    split-complex conjugation    rat      hyperbolic quantum theory (signed probabilities)",
    "relational     bool         identity                     bool     relational quantum theory (possibilities)",
    "modal          gf2 p        Frobenius x -> x^p           gf p     modal quantum theory over GF(p^2), scalars GF(p)",
]) + "\n"


def test_toyzoo_table_is_unchanged(capsys):
    code, out, _ = run(capsys, "toyzoo")
    assert code == 0 and out == TOYZOO


def test_theory_check_without_positive_part_is_a_usage_error(capsys):
    code, out, err = run(capsys, "theory-check", "gf 3", "--backend", "quantum")
    assert code == 2 and out == ""
    assert "no positive sub-semiring" in err


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run(capsys, "--out", str(target), "toyzoo")
    assert code == 0 and out == ""
    assert "relational" in target.read_text()


def test_identical_inputs_and_seed_are_byte_identical(capsys):
    _, out1, _ = run(capsys, "--seed", "42", "theory-check", "gauss-rat")
    _, out2, _ = run(capsys, "--seed", "42", "theory-check", "gauss-rat")
    assert out1 == out2


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("CATPROB_SEED", "7")
    _, out_env, _ = run(capsys, "theory-check", "ratnn")
    _, out_flag, _ = run(capsys, "--seed", "7", "theory-check", "ratnn")
    assert out_env == out_flag


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "bell", "no-such.scn")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("literal", ["inf", "-inf", "nan", "1+infi"])
def test_non_finite_complex_literals_are_usage_errors(capsys, tmp_path, literal):
    f = tmp_path / "d.diag"
    f.write_text(f"sys x classical 1\ngen f : x -> x = [[{literal}]]\nf\n")
    code, out, err = run(capsys, "eval", "--semiring", "complex-f64", str(f))
    assert code == 2 and out == ""
    assert "complex literal must be finite" in err


def test_bell_and_theory_check_do_not_import_numpy(tmp_path):
    """numpy costs ~12 MB and ~80 ms to import; only purity tests and
    purification may load it."""
    script = (
        "import sys\n"
        "from catprob import cli\n"
        f"assert cli.main(['--out', {str(tmp_path / 'out')!r}, 'bell', {os.path.join(SCEN, 'tsirelson.scn')!r}]) == 0\n"
        f"assert cli.main(['--out', {str(tmp_path / 'out')!r}, 'theory-check', 'complex-f64', '--backend', 'quantum']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def _run_process(*argv, **env_vars):
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "catprob.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("line,token", [("tolerance abc", "'abc'"), ("party A\ndim x", "'x'")])
def test_bad_scenario_numbers_are_usage_errors(tmp_path, line, token):
    f = tmp_path / "s.scn"
    f.write_text(f"semiring complex-f64\n{line}\n")
    proc = _run_process("bell", str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and token in proc.stderr


def test_scenario_without_semiring_is_a_usage_error(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text("backend quantum\nparty A\ndim 2\n")
    proc = _run_process("bell", str(f))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: scenario file must declare a semiring"]


def test_bad_bool_literal_is_a_usage_error(tmp_path):
    f = tmp_path / "d.diag"
    f.write_text("sys x classical 1\n2 . id[x]\n")
    proc = _run_process("eval", "--semiring", "bool", str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "'2'" in proc.stderr


def test_non_positive_state_is_a_semantic_failure(tmp_path):
    """A normalised state with eigenvalues 3/2 and -1/2 gives a negative
    outcome weight: that is the scenario's fault, so exit 1, not 2."""
    with open(os.path.join(SCEN, "chsh-345.scn")) as fh:
        text = fh.read()
    start = text.index("state density")
    end = text.index("\n", start)
    f = tmp_path / "s.scn"
    f.write_text(text[:start] + "state density [[1/2,0,0,1],[0,0,0,0],[0,0,0,0],[1,0,0,1/2]]" + text[end:])
    proc = _run_process("bell", str(f))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [
        "invalid scenario:",
        "  context 1|1, outcome 0|1: -144/625 lies outside the positive sub-semiring of gauss-rat",
    ]


def test_non_integer_env_seed_is_a_usage_error():
    proc = _run_process("theory-check", "ratnn", CATPROB_SEED="abc")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: CATPROB_SEED must be an integer, got 'abc'"]


def test_out_path_that_is_a_directory_is_a_usage_error(tmp_path):
    proc = _run_process("--out", str(tmp_path), "toyzoo")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and "Is a directory" in proc.stderr


def _nested(depth):
    return "[" * depth + "1" + "]" * depth


def _with_state(scenario, line):
    """A shipped scenario with its `state` line replaced."""
    with open(os.path.join(SCEN, scenario)) as fh:
        text = fh.read()
    start = text.index("\nstate ") + 1
    return text[:start] + line + text[text.index("\n", start):]


@pytest.mark.parametrize("depth", [3, 3000])
def test_deeply_nested_state_literal_is_a_usage_error(tmp_path, depth):
    f = tmp_path / "s.scn"
    f.write_text(_with_state("chsh-345.scn", f"state density {_nested(depth)}"))
    proc = _run_process("bell", str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: matrix literal nested more than 2 deep at offset 2"]


def test_nested_classical_state_vector_is_a_usage_error(tmp_path):
    f = tmp_path / "s.scn"
    f.write_text(_with_state("correlated-coin.scn", "state vector [[1], [0]]"))
    proc = _run_process("bell", str(f))
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: matrix literal nested more than 1 deep at offset 1"]


def test_deeply_nested_binding_is_a_usage_error(tmp_path):
    entry = os.path.join(CORPUS, "coarse-graining")
    f = tmp_path / "bindings.txt"
    f.write_text(f"semiring ratnn\ngen f = {_nested(3000)}\n")
    proc = _run_process("eq", os.path.join(entry, "lhs.diag"), os.path.join(entry, "rhs.diag"), str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and "nested more than 2 deep" in proc.stderr


@pytest.mark.parametrize("prefix,suffix", [("(" * 2000, ")" * 2000), ("1 . " * 2000, "")])
def test_deeply_nested_diagram_is_a_usage_error(tmp_path, prefix, suffix):
    f = tmp_path / "d.diag"
    f.write_text(f"sys x classical 2\n{prefix}id[x]{suffix}\n")
    proc = _run_process("eval", str(f))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[0].endswith("nested more than 100 deep")


GOLDEN = os.path.join(ROOT, "perfbench", "golden")
_GOLDEN_RUNS = [
    ("scenarios", name[: -len(".scn")], ["bell", "--format", "machine", os.path.join(SCEN, name)])
    for name in sorted(os.listdir(SCEN))
] + [
    ("eqcorpus", name, ["eq"] + [os.path.join(CORPUS, name, f) for f in ("lhs.diag", "rhs.diag", "bindings.txt")])
    for name in sorted(os.listdir(CORPUS))
]


@pytest.mark.parametrize("kind,name,argv", _GOLDEN_RUNS, ids=[f"{k}/{n}" for k, n, _ in _GOLDEN_RUNS])
def test_shipped_inputs_match_the_benchmark_golden_outputs(tmp_path, kind, name, argv):
    out = tmp_path / "out"
    assert main(["--out", str(out)] + argv) == 0
    with open(os.path.join(GOLDEN, kind, f"{name}.out")) as fh:
        assert out.read_text() == fh.read()


def _eq_files(tmp_path, decls, lhs, rhs):
    paths = [tmp_path / "lhs.diag", tmp_path / "rhs.diag"]
    for path, expr in zip(paths, (lhs, rhs)):
        path.write_text(f"{decls}\n{expr}\n")
    return [str(p) for p in paths]


# operator, terms, wire, f, g's perturbed binding, eval output of the n-term chain of f
_FLAT_CHAINS = [
    (";", 5000, "sys x classical 2", "[[0, 1], [1, 0]]", "[[1, 0], [0, 1]]", ["1  0", "0  1"]),
    ("+", 3000, "sys x classical 2", "[[0, 1], [1, 0]]", "[[1, 1], [1, 0]]", ["0  3000", "3000  0"]),
    ("*", 3000, "sys x classical 1", "[[1]]", "[[2]]", ["1"]),
]


@pytest.mark.parametrize("op,n,sys_line,f,perturbed,rows", _FLAT_CHAINS, ids=[c[0] for c in _FLAT_CHAINS])
def test_flat_chains_of_any_length(capsys, tmp_path, op, n, sys_line, f, perturbed, rows):
    """A chain is one n-ary node, so its length does not reach the recursion limit."""
    lhs, rhs = _eq_files(
        tmp_path, f"{sys_line}\ngen f : x -> x\ngen g : x -> x",
        f" {op} ".join(["f"] * n), f" {op} ".join(["f"] * (n - 1) + ["g"]),
    )
    b = tmp_path / "b.txt"
    for g, want in [(f, 0), (perturbed, 1)]:
        b.write_text(f"semiring nat\ngen f = {f}\ngen g = {g}\n")
        code, out, err = run(capsys, "eq", lhs, rhs, str(b))
        assert (code, err) == (want, ""), out
    d = tmp_path / "d.diag"
    d.write_text(f"{sys_line}\ngen f : x -> x = {f}\n" + f" {op} ".join(["f"] * n) + "\n")
    code, out, err = run(capsys, "eval", str(d))
    assert (code, err) == (0, "") and out.splitlines()[2:] == rows


def test_deepest_nesting_with_three_chains_per_bracket(capsys, tmp_path):
    """`_MAX_NESTING` brackets, each holding a `+`, a `;` and a `*` chain."""
    def nest(inner):
        for _ in range(100):
            inner = f"({inner} * k ; f + f)"
        return inner

    lhs, rhs = _eq_files(tmp_path, "sys x classical 2\ngen f : x -> x\ngen g : x -> x\ngen k : ->", nest("f"), nest("g"))
    b = tmp_path / "b.txt"
    for g, want in [("[[0, 1], [1, 0]]", 0), ("[[1, 0], [0, 1]]", 1)]:
        b.write_text(f"semiring nat\ngen f = [[0, 1], [1, 0]]\ngen g = {g}\ngen k = [[1]]\n")
        code, out, err = run(capsys, "eq", lhs, rhs, str(b))
        assert (code, err) == (want, ""), out
    d = tmp_path / "d.diag"
    d.write_text("sys x classical 2\ngen f : x -> x = [[0, 1], [1, 0]]\ngen k : -> = [[1]]\n" + nest("f") + "\n")
    code, out, err = run(capsys, "eval", str(d))
    assert (code, err) == (0, "") and out.splitlines()[2:] == ["50  51", "51  50"]


_PARTY = "party A\nsize 1\nchoices 1\noutcomes 1\nmatrix [[1]]\n"


@pytest.mark.parametrize("argv,scn,message", [
    (["bell", SCEN], None, "Is a directory"),
    (["eval", CORPUS], None, "Is a directory"),
    (["eq", os.path.join(CORPUS, "id-resolution", "lhs.diag"), CORPUS, CORPUS], None, "Is a directory"),
    (["bell"], b"\xff\xfesemiring ratnn\n", "can't decode byte 0xff"),
    (["bell"], b"semiring ratnn\nstate vector [1]\n", "scenario file must declare a party"),
    (["bell"], b"semiring gauss-rat\nbackend quantum\nstate density [[1]]\n", "scenario file must declare a party"),
    (["bell"], b"semiring ratnn\n" + _PARTY.encode() + b"state vector\n", "`state vector` needs a bracketed literal"),
    (["bell"], b"semiring gauss-rat\nbackend quantum\nparty A\ndim 1\nstate density\n",
     "`state density` needs a bracketed literal"),
    (["bell"], b"semiring complex-f64\ntolerance nan\n" + _PARTY.encode() + b"state vector [1]\n",
     "tolerance must be finite and nonnegative, got nan"),
    (["--tolerance", "nan", "theory-check", "complex-f64"], None, "tolerance must be finite and nonnegative, got nan"),
    (["--tolerance", "inf", "theory-check", "complex-f64", "--backend", "quantum"], None,
     "tolerance must be finite and nonnegative, got inf"),
], ids=["bell-dir", "eval-dir", "eq-dir", "scn-not-utf8", "no-party", "no-party-quantum", "no-state-vector",
        "no-state-density", "scn-nan-tolerance", "nan-tolerance", "inf-tolerance"])
def test_unreadable_or_incomplete_inputs_are_usage_errors(tmp_path, argv, scn, message):
    if scn is not None:
        f = tmp_path / "s.scn"
        f.write_bytes(scn)
        argv = argv + [str(f)]
    proc = _run_process(*argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and message in proc.stderr


def test_benchmark_entry_points_name_functions_of_their_modules():
    """The benchmark traces these names; read them without importing its harness."""
    with open(os.path.join(ROOT, "perfbench", "run.py")) as fh:
        tree = ast.parse(fh.read())
    (names,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["ENTRY_POINTS"]]
    assert names
    for name in names:
        module, _, qualname = name.partition(".")
        obj = importlib.import_module(f"catprob.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        assert inspect.isfunction(obj), name
        assert (obj.__module__, obj.__qualname__) == (f"catprob.{module}", qualname), name
