"""cli-io: exit-code contract, golden reports, text/json number identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbdsys.fileio import format_float
from golden_cases import CASES, EXPECTED_DIR, INPUT_DIR, GoldenCase, run_case

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(args, check=False, **env):
    """A fresh interpreter with this checkout's src first on its PYTHONPATH
    and CBD_LOG unset unless given, so it runs without an installed package."""
    base = {k: v for k, v in os.environ.items() if k != "CBD_LOG"}
    path = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=check,
        env={**base, "PYTHONPATH": path, **env}, timeout=120,
    )


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_exit_code_contract(case):
    exit_code, stdout, stderr = run_case(case)
    assert exit_code == case.exit_code, f"stderr: {stderr}"
    if case.stderr_contains is not None:
        assert case.stderr_contains in stderr


@pytest.mark.parametrize(
    "case", [c for c in CASES if c.golden is not None], ids=lambda c: c.name
)
def test_golden_reports_byte_identical(case):
    expected = (EXPECTED_DIR / case.golden).read_text(encoding="utf-8")
    _, stdout, _ = run_case(case)
    assert stdout == expected


@pytest.mark.parametrize(
    "case", [c for c in CASES if c.golden is not None], ids=lambda c: c.name
)
def test_golden_reports_parse_and_round_trip(case):
    from cbdsys.fileio import dumps_canonical

    text = (EXPECTED_DIR / case.golden).read_text(encoding="utf-8")
    doc = json.loads(text)
    assert dumps_canonical(doc) + "\n" == text  # machine format round-trips


def test_text_and_json_carry_identical_numbers():
    case = next(c for c in CASES if c.name == "double_slit_worked_file")
    _, json_out, _ = run_case(case)
    text_args = tuple(a if a != "json" else "text" for a in case.args)
    _, text_out, _ = run_case(GoldenCase(case.name, text_args, case.exit_code))
    doc = json.loads(json_out)
    entry = doc["results"][0]
    for value in (entry["lhs"], entry["rhs"], entry["margin"]):
        assert format_float(value) in text_out


def test_stdin_input():
    from click.testing import CliRunner

    from cbdsys.cli import cli

    payload = (INPUT_DIR / "bell_mixed.json").read_text()
    runner = CliRunner()
    result = runner.invoke(cli, ["analyze", "--input", "-", "--output", "json"],
                           input=payload)
    assert result.exit_code == 0
    assert json.loads(result.output)["verdict"] == "noncontextual"


def test_witness_flag_included_only_on_request():
    with_flag = GoldenCase(
        "w1", ("analyze", "--input", "bell_mixed.json", "--output", "json",
               "--method", "lp", "--witness"), 0)
    without = GoldenCase(
        "w0", ("analyze", "--input", "bell_mixed.json", "--output", "json",
               "--method", "lp"), 0)
    _, out_with, _ = run_case(with_flag)
    _, out_without, _ = run_case(without)
    assert "witness" in json.loads(out_with)
    assert json.loads(out_with)["witness"] is not None
    assert "witness" not in json.loads(out_without)


def test_verdicts_in_report_equal_operation_outputs():
    from cbdsys import (
        CouplingConstraint,
        cbd_cyclic4,
        decide,
        detect_cyclic,
        parse_system,
    )

    system = parse_system(INPUT_DIR / "bell_pr_box.json")
    layout = detect_cyclic(system)
    closed = cbd_cyclic4(system, layout)
    verdict = decide(system, CouplingConstraint.MAX_EQUALITY)
    case = next(c for c in CASES if c.name == "bell_pr_box")
    _, stdout, _ = run_case(case)
    doc = json.loads(stdout)
    entries = {e["method"]: e for e in doc["results"]}
    assert entries["cyclic4"]["lhs"] == closed.lhs
    assert entries["cyclic4"]["noncontextual"] == closed.noncontextual
    assert entries["lp"]["feasible"] == verdict.feasible


def test_method_both_never_disagrees_on_random_systems(tmp_path, rng):
    # Exercises the disagreement trap end to end: exit codes stay in the
    # verdict set (0/3), never 2, across a random corpus.
    from cbdsys import serialize_system
    from helpers import random_rank2, random_rank4_general

    for i in range(30):
        system = random_rank4_general(rng) if i % 2 else random_rank2(rng)
        path = tmp_path / f"sys{i}.json"
        path.write_text(serialize_system(system))
        case = GoldenCase(
            f"rand{i}",
            ("analyze", "--input", str(path), "--method", "both"),
            0,
        )
        exit_code, _, stderr = run_case(case)
        assert exit_code in (0, 3), stderr


def test_usage_errors_exit_one_via_entry_point():
    # Flag errors are input errors (exit 1), not click's default usage exit 2.
    proc = _run_python(
        ["-m", "cbdsys.cli", "analyze", "--method", "bogus",
         "--input", str(INPUT_DIR / "bell_mixed.json")])
    assert proc.returncode == 1
    assert "bogus" in proc.stderr


def test_entry_point_runs_end_to_end():
    proc = _run_python(
        ["-m", "cbdsys.cli", "qq", "--input",
         str(INPUT_DIR / "qq_identical.json"), "--output", "json"])
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["qq_statistic"] == 0


def _invoke(args):
    from click.testing import CliRunner

    from cbdsys.cli import cli

    return CliRunner().invoke(cli, args, catch_exceptions=False)


_POINT = ("double-slit", "--p", "0.1", "--q", "0.1", "--pp", "0.08",
          "--qp", "0.08", "--rp", "0.05")


@pytest.mark.parametrize("args", [
    ("analyze", "--input", str(INPUT_DIR / "bell_mixed.json"), "--method", "lp"),
    _POINT,
    ("double-slit", "--sweep", "3", "--seed", "1"),
], ids=["analyze_lp", "double_slit_point", "double_slit_sweep"])
def test_solver_error_exits_two(monkeypatch, args):
    from cbdsys import SolverError

    def broken(system, constraint):
        raise SolverError("solver gave up")

    monkeypatch.setattr("cbdsys.cli.decide", broken)
    result = _invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: solver gave up"]


def test_non_optimal_highs_status_exits_two(monkeypatch):
    from scipy.optimize._highspy import _core

    real = _core._Highs

    class Stalled:
        """A HiGHS instance that reports running out of iterations."""

        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            return _core.HighsModelStatus.kIterationLimit

    monkeypatch.setattr(_core, "_Highs", Stalled)
    result = _invoke(("analyze", "--input", str(INPUT_DIR / "bell_mixed.json"),
                      "--method", "lp"))
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: LP solver failed: HiGHS model status 'Iteration limit reached'"]


def _contradicting_decide(system, constraint):
    # Every system used below is noncontextual, so "infeasible" contradicts
    # the closed form.
    from cbdsys.coupling import FeasibilityVerdict

    return FeasibilityVerdict(feasible=False, witness=None,
                              max_constraint_violation=0.25)


@pytest.mark.parametrize("args", [
    ("analyze", "--input", str(INPUT_DIR / "bell_mixed.json"), "--method", "both",
     "--output", "json"),
    (*_POINT, "--output", "json"),
], ids=["analyze_both", "double_slit_point"])
def test_disagreement_exits_two(monkeypatch, args):
    monkeypatch.setattr("cbdsys.cli.decide", _contradicting_decide)
    result = _invoke(args)
    assert result.exit_code == 2
    doc = json.loads(result.stdout)
    assert doc["agreement"] is False
    assert doc["verdict"] == "disagreement"
    assert list(doc)[-2:] == ["verdict", "engine"]
    assert result.stderr.splitlines()[-1] == (
        "error: closed-form and LP verdicts disagree")


def test_sweep_disagreements_exit_two_and_keep_counts(monkeypatch):
    monkeypatch.setattr("cbdsys.cli.decide", _contradicting_decide)
    result = _invoke(("double-slit", "--sweep", "3", "--seed", "1",
                      "--output", "json"))
    assert result.exit_code == 2
    doc = json.loads(result.stdout)
    assert doc["counts"] == {"noncontextual": 3, "contextual": 0,
                             "disagreements": 3}
    assert doc["verdict"] == "noncontextual"
    assert list(doc)[-2:] == ["verdict", "engine"]
    assert result.stderr.splitlines()[-1] == (
        "error: 3 closed-form/LP disagreements")


_SCIPY_PROBE = """
import contextlib, io, json, sys
names = ("scipy", "scipy.optimize", "scipy.optimize._highspy._core")
loaded = []
def note():
    loaded.append([name in sys.modules for name in names])
note()
import cbdsys
note()
import cbdsys.cli
note()
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            cbdsys.cli.main(argv)
        except SystemExit as exc:
            codes.append(exc.code)
    note()
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def test_scipy_loads_only_for_an_lp_solve():
    # A fresh interpreter: this process has imported scipy already.
    invocations = [
        ["--version"],
        ["analyze", "--input", str(INPUT_DIR / "bell_pr_box.json")],
        ["qq", "--input", str(INPUT_DIR / "qq_unequal_marginals.json")],
        ["analyze", "--input", str(INPUT_DIR / "bad_sum.json")],
        ["analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
         "--method", "lp"],
    ]
    proc = _run_python(["-c", _SCIPY_PROBE, json.dumps(invocations)], check=True)
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 3, 0, 1, 3]
    # Before any import, after `import cbdsys`, after `import cbdsys.cli`,
    # then after each invocation: only the last one solves an LP, and it
    # loads the HiGHS bindings alone, never the scipy or scipy.optimize
    # packages.
    assert doc["loaded"] == [[False, False, False]] * 7 + [[False, False, True]]


_ORDER_PROBE = """
import sys
from cbdsys import build_bell, coupling, decide, CouplingConstraint
def lp_verdict():
    return decide(build_bell((1, 1, 1, -1), [0.0] * 8),
                  CouplingConstraint.MAX_EQUALITY).feasible
if sys.argv[1] == "decide-first":
    assert lp_verdict() is False
    assert "scipy.optimize" not in sys.modules
import scipy.optimize
from scipy.optimize._highspy import _core
result = scipy.optimize.linprog([1, 2], A_ub=[[-1, -1]], b_ub=[-1])
assert result.status == 0 and result.fun == 1.0, result
assert lp_verdict() is False
assert coupling._highspy() is _core is sys.modules["scipy.optimize._highspy._core"]
print("ok")
"""


@pytest.mark.parametrize("order", ["decide-first", "scipy-first"])
def test_bindings_are_shared_with_scipy_optimize(order):
    # Either import order leaves one bindings module, which both decide and
    # scipy.optimize's own linprog use.
    proc = _run_python(["-c", _ORDER_PROBE, order])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


_THREADS_PROBE = """
import json, sys, threading, time
from cbdsys import build_bell, coupling, decide, CouplingConstraint
systems = [build_bell((0.5, 0.5, 0.5, 0.5), [0.0] * 8),
           build_bell((1, 1, 1, -1), [0.0] * 8)] * 2
for system in systems:  # build the LP shapes, so decide goes straight to HiGHS
    coupling.build_feasibility_problem(system, CouplingConstraint.MAX_EQUALITY)
deadline = time.monotonic() + 60
ready, go = [], []
verdicts = [None] * len(systems)
modules = [None] * len(systems)
def work(i):
    # Spin rather than block, so every thread is running when go is set.
    ready.append(i)
    while not go and time.monotonic() < deadline:
        pass
    modules[i] = coupling._highspy()
    verdicts[i] = decide(systems[i], CouplingConstraint.MAX_EQUALITY).feasible
sys.setswitchinterval(1e-6)  # switch threads as often as possible
threads = [threading.Thread(target=work, args=(i,)) for i in range(len(systems))]
for thread in threads:
    thread.start()
while len(ready) < len(threads) and time.monotonic() < deadline:
    pass
go.append(True)
for thread in threads:
    thread.join(timeout=60)
    assert not thread.is_alive()
bindings = sys.modules["scipy.optimize._highspy._core"]
print(json.dumps({
    "verdicts": verdicts,
    "shared": all(module is bindings for module in modules),
}))
"""


def test_first_bindings_load_is_safe_under_threads():
    # Four threads in a fresh interpreter reach the first load of the
    # bindings together, then decide.  Without the lock two of them load it
    # in about half the runs, so three runs must all pass.
    for _ in range(3):
        proc = _run_python(["-c", _THREADS_PROBE])
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc == {"verdicts": [True, False, True, False], "shared": True}


def _fake_scipy(root, bindings: bytes | None) -> str:
    """A ``scipy`` package under ``root`` with an empty ``__init__``, and, when
    ``bindings`` is given, those bytes as its HiGHS extension module."""
    import importlib.machinery

    package = root / "scipy"
    package.mkdir()
    (package / "__init__.py").write_text("")
    if bindings is not None:
        highspy = package / "optimize" / "_highspy"
        highspy.mkdir(parents=True)
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        (highspy / f"_core{suffix}").write_bytes(bindings)
    return os.pathsep.join([str(root), SRC])


@pytest.mark.parametrize("bindings, message", [
    (None, "error: HiGHS bindings not found: no "),
    (b"not an extension module", "error: HiGHS bindings failed to load from "),
], ids=["missing", "unloadable"])
def test_missing_highs_bindings_exit_two(tmp_path, bindings, message):
    path = _fake_scipy(tmp_path, bindings)
    proc = _run_entry_point(
        ("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"), "--method", "lp"),
        PYTHONPATH=path,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(message)
    assert str(tmp_path / "scipy" / "optimize" / "_highspy") in line
    assert line.endswith("; cbdsys needs scipy>=1.17")


def _run_entry_point(args, **env):
    return _run_python(["-m", "cbdsys.cli", *args], **env)


def test_cbd_log_debug_prints_the_decide_record():
    args = ("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
            "--method", "lp")
    quiet = _run_entry_point(args)
    loud = _run_entry_point(args, CBD_LOG="debug")
    assert quiet.returncode == loud.returncode == 3
    assert quiet.stdout == loud.stdout
    assert quiet.stderr == ""
    assert loud.stderr.splitlines() == [
        "DEBUG:cbdsys.coupling:decide: m=8, 6 cliques, CNT1 LP 37 x 48,"
        " Optimal after 36 simplex iterations, degree 2 -> infeasible"
    ]


@pytest.mark.parametrize("name", ["qq_unequal_marginals.json", "double_slit_worked.json"],
                         ids=["rank2", "rank4"])
def test_equal_always_closed_form_on_inconsistent_input_points_to_lp(name):
    result = _invoke(("analyze", "--input", str(INPUT_DIR / name), "--constraint",
                      "equal-always", "--method", "closed-form"))
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: no closed form for equal-always on inconsistently")
    assert line.endswith("; use --method lp")


def test_text_report_labels_an_infeasible_lp_number_degree():
    result = _invoke(("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
                      "--method", "both", "--output", "text"))
    assert result.exit_code == 3
    lines = result.stdout.splitlines()
    assert "method cyclic4: lhs 4 rhs 2 margin -2 -> contextual" in lines
    assert "method lp (max-equality): degree 2 -> infeasible (contextual)" in lines
