"""cli-io: exit-code contract, golden reports, text/json number identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cbdsys.fileio import format_float
from golden_cases import (
    CASES,
    EXPECTED_DIR,
    INPUT_DIR,
    GoldenCase,
    invoke,
    resolve_args,
    run_case,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _run_python(args, check=False, stdin=None, **env):
    """A fresh interpreter with this checkout's src first on its PYTHONPATH
    and CBD_LOG unset unless given, so it runs without an installed package."""
    base = {k: v for k, v in os.environ.items() if k != "CBD_LOG"}
    path = os.pathsep.join(p for p in (SRC, base.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, check=check,
        input=stdin, env={**base, "PYTHONPATH": path, **env}, timeout=120,
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


def test_golden_inputs_regenerate_byte_identically():
    import regen_golden

    files = regen_golden.build_inputs()
    assert sorted(files) == sorted(INPUT_DIR.iterdir())
    for path, data in files.items():
        assert path.read_bytes() == data, path.name


def test_text_and_json_carry_identical_numbers():
    case = next(c for c in CASES if c.name == "double_slit_worked_file")
    _, json_out, _ = run_case(case)
    text_args = tuple(a if a != "json" else "text" for a in case.args)
    _, text_out, _ = run_case(GoldenCase(case.name, text_args, case.exit_code))
    doc = json.loads(json_out)
    entry = doc["results"][0]
    for value in (entry["lhs"], entry["rhs"], entry["margin"]):
        assert format_float(value) in text_out


def _count_views(monkeypatch) -> list[str]:
    """Record each computation of a System's kept views: its connections,
    its cyclic layout and each variable's Pr[+1]."""
    import cbdsys.system

    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for attr, name in (("_build_connections", "connections"),
                       ("_find_cycle", "detect_cyclic"),
                       ("_plus_probability", "marginal")):
        monkeypatch.setattr(cbdsys.system, attr,
                            counted(name, getattr(cbdsys.system, attr)))
    return calls


def test_system_summary_builds_the_connections_once(monkeypatch):
    from cbdsys import DoubleSlitParams, build_double_slit, connections, consistency
    from cbdsys.report import system_summary

    calls = _count_views(monkeypatch)
    system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
    summary = system_summary(system)
    report = consistency(system)
    assert connections(system) is connections(system)
    assert summary["max_marginal_gap"] == report.max_marginal_gap
    assert summary["consistently_connected"] is report.consistently_connected
    # One connections build and one cycle walk per system, one fsum per
    # variable, however often the summary and its callers read them.
    assert sorted(set(calls)) == ["connections", "detect_cyclic", "marginal"]
    assert calls.count("connections") == calls.count("detect_cyclic") == 1
    assert calls.count("marginal") == sum(len(b.contents) for b in system.bunches)


@pytest.mark.parametrize("args", [
    ("analyze", "--input", "bell_pr_box.json", "--constraint", "equal-always"),
    ("analyze", "--input", "bell_pr_box.json", "--constraint", "equal-always",
     "--method", "both"),
    ("analyze", "--input", "bell_mixed.json", "--method", "closed-form"),
    ("qq", "--input", "qq_unequal_marginals.json"),
], ids=["analyze_equal_always_auto", "analyze_equal_always_both",
        "analyze_closed_form", "qq"])
def test_cli_builds_the_layout_and_connections_once(monkeypatch, args):
    from cbdsys import parse_system

    variables = sum(len(b.contents) for b in parse_system(INPUT_DIR / args[2]).bunches)
    calls = _count_views(monkeypatch)
    args = (args[0], "--input", str(INPUT_DIR / args[2]), *args[3:])
    result = invoke(args)
    assert result.exit_code in (0, 3), result.stderr
    assert sorted(calls) == ["connections", "detect_cyclic", *["marginal"] * variables]


def test_stdin_input():
    payload = (INPUT_DIR / "bell_mixed.json").read_bytes()
    result = invoke(["analyze", "--input", "-", "--output", "json"], stdin=payload)
    assert result.exit_code == 0
    assert json.loads(result.stdout)["verdict"] == "noncontextual"


@pytest.mark.parametrize("name", ["non_utf8.json", "malformed.json", "qq_identical.json"])
def test_stdin_is_read_like_a_file(name):
    # Both must be UTF-8: stdin's bytes reach the same decode and JSON errors.
    from_file = invoke(["qq", "--input", str(INPUT_DIR / name)])
    from_stdin = invoke(["qq", "--input", "-"], stdin=(INPUT_DIR / name).read_bytes())
    assert from_stdin == from_file


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
    # Flag errors are input errors (exit 1), not argparse's default usage exit 2.
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
    result = invoke(args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.splitlines() == ["error: solver gave up"]


def test_non_optimal_highs_status_exits_two(monkeypatch):
    from scipy.optimize._highspy import _core

    from cbdsys import coupling

    real = coupling._solver

    class Stalled:
        """This thread's HiGHS instance, reporting running out of iterations."""

        def __init__(self):
            self._highs = real()

        def __getattr__(self, name):
            return getattr(self._highs, name)

        def getModelStatus(self):
            return _core.HighsModelStatus.kIterationLimit

    monkeypatch.setattr(coupling, "_solver", Stalled)
    result = invoke(("analyze", "--input", str(INPUT_DIR / "bell_mixed.json"),
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
    result = invoke(args)
    assert result.exit_code == 2
    doc = json.loads(result.stdout)
    assert doc["agreement"] is False
    assert doc["verdict"] == "disagreement"
    assert list(doc)[-2:] == ["verdict", "engine"]
    assert result.stderr.splitlines()[-1] == (
        "error: closed-form and LP verdicts disagree")


def test_sweep_disagreements_exit_two_and_keep_counts(monkeypatch):
    monkeypatch.setattr("cbdsys.cli.decide", _contradicting_decide)
    result = invoke(("double-slit", "--sweep", "3", "--seed", "1",
                     "--output", "json"))
    assert result.exit_code == 2
    doc = json.loads(result.stdout)
    assert doc["counts"] == {"noncontextual": 3, "contextual": 0,
                             "disagreements": 3}
    assert doc["verdict"] == "noncontextual"
    assert list(doc)[-2:] == ["verdict", "engine"]
    assert result.stderr.splitlines()[-1] == (
        "error: 3 closed-form/LP disagreements")


_LOAD_PROBE = """
import contextlib, io, json, sys
names = ("scipy", "scipy.optimize", "scipy.optimize._highspy._core",
         "numpy", "cbdsys.coupling", "cbdsys.scenarios", "logging")
before = set(sys.modules)
loaded, foreign = [], []
def note():
    loaded.append([name in sys.modules for name in names])
    # Top-level packages loaded since start-up from outside the stdlib.
    new = {name.partition(".")[0] for name in set(sys.modules) - before}
    foreign.append(sorted(new - set(sys.stdlib_module_names) - {"cbdsys"}))
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
print(json.dumps({"loaded": loaded, "foreign": foreign, "codes": codes}))
"""


def test_numpy_and_lp_engine_load_only_for_an_lp_solve():
    # A fresh interpreter: this process has imported scipy already.
    invocations = [
        ["--version"],
        ["analyze", "--input", str(INPUT_DIR / "bell_pr_box.json")],
        ["qq", "--input", str(INPUT_DIR / "qq_unequal_marginals.json")],
        ["analyze", "--input", str(INPUT_DIR / "bad_sum.json")],
        ["analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"), "--method", "bogus"],
        ["analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
         "--method", "lp"],
        list(_POINT),
    ]
    proc = _run_python(["-c", _LOAD_PROBE, json.dumps(invocations)], check=True)
    doc = json.loads(proc.stdout)
    assert doc["codes"] == [0, 3, 0, 1, 1, 3, 0]
    # Before any import, after `import cbdsys`, after `import cbdsys.cli`,
    # then after each invocation.  Start-up, --version, the closed forms and
    # the input errors load none of the names.  The LP solve loads numpy,
    # the coupling engine (which logs) and the HiGHS bindings alone, never
    # the scipy or scipy.optimize packages; only double-slit loads the
    # scenarios.
    none = [False] * 7
    lp = [False, False, True, True, True, False, True]
    assert doc["loaded"] == (
        [none] * 8 + [lp, [False, False, True, True, True, True, True]]
    )
    # Outside the stdlib, only numpy and the HiGHS bindings are ever loaded,
    # and only by the LP solves: argument parsing is the stdlib's.
    assert doc["foreign"] == [[]] * 8 + [["numpy", "scipy"]] * 2


_WITHOUT_NUMPY = (
    "import runpy, sys; sys.modules['numpy'] = None;"
    " runpy.run_module('cbdsys.cli', run_name='__main__', alter_sys=True)"
)


@pytest.mark.parametrize("case", [
    c for c in CASES
    if c.name in ("bell_mixed", "qq_identical", "qq_unequal_marginals", "qq_opposite",
                  "bad_sum", "closed_form_needs_cycle", "qq_needs_rank2",
                  "context_of_40_contents", "context_of_64_contents")
], ids=lambda c: c.name)
def test_closed_forms_and_input_errors_run_without_numpy(case):
    # The entry point in a fresh interpreter that cannot import numpy.
    proc = _run_python(["-c", _WITHOUT_NUMPY, *resolve_args(case)])
    assert proc.returncode == case.exit_code, proc.stderr
    if case.golden is not None:
        assert proc.stdout == (EXPECTED_DIR / case.golden).read_text(encoding="utf-8")
        assert proc.stderr == ""
    else:
        [line] = proc.stderr.splitlines()
        assert case.stderr_contains in line


@pytest.mark.parametrize("args, module", [
    (("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"), "--method", "lp"),
     "cbdsys.coupling"),
    (_POINT, "cbdsys.coupling"),
    (("double-slit", "--sweep", "3", "--seed", "1"), "numpy"),
], ids=["analyze_lp", "double_slit_point", "double_slit_sweep"])
def test_lp_run_without_numpy_exits_two(args, module):
    proc = _run_python(["-c", _WITHOUT_NUMPY, *args])
    assert proc.returncode == 2
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"error: cannot load {module}: ")
    assert "numpy" in line.removeprefix(f"error: cannot load {module}")


_API_PROBE = """
import sys
import cbdsys
eager = set(vars(cbdsys))
lazy = set(cbdsys.__all__) - eager
engine = {"M_MAX", "CouplingWitness", "FeasibilityProblem", "FeasibilityVerdict",
          "build_feasibility_problem", "coupling_variables", "decide",
          "witness_violation"}
scenarios = {"DoubleSlitParams", "QuestionOrderParams", "build_bell",
             "build_double_slit", "build_question_order", "check_double_slit",
             "sample_double_slit_params"}
assert lazy == engine | scenarios, lazy
assert set(cbdsys.__all__) <= set(dir(cbdsys))
assert not hasattr(cbdsys, "no_such_name")
assert not {"cbdsys.coupling", "cbdsys.scenarios", "numpy"} & set(sys.modules)
values = {name: getattr(cbdsys, name) for name in cbdsys.__all__}
import cbdsys.coupling, cbdsys.scenarios
assert lazy <= set(vars(cbdsys))
assert all(values[name] is getattr(cbdsys.coupling, name) for name in engine)
assert all(values[name] is getattr(cbdsys.scenarios, name) for name in scenarios)
namespace = {}
exec("from cbdsys import *", namespace)
assert all(namespace[name] is values[name] for name in cbdsys.__all__)
assert (cbdsys.CouplingConstraint is cbdsys.system.CouplingConstraint
        is cbdsys.coupling.CouplingConstraint)
assert (cbdsys.max_equality_probability is cbdsys.system.max_equality_probability
        is cbdsys.coupling.max_equality_probability)
print("ok")
"""


def test_public_api_resolves_with_the_engine_loaded_lazily():
    # Every name in __all__ resolves, and the coupling and scenario names
    # come from their modules on first access, not with `import cbdsys`.
    proc = _run_python(["-c", _API_PROBE])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


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


_SHARED_SCHEDULER_PROBE = """
from cbdsys import build_bell, coupling, decide, CouplingConstraint
highspy = coupling._highspy()
other = highspy._Highs()
options = highspy.HighsOptions()
options.output_flag = options.log_to_console = False
options.threads = 2
other.passOptions(options)
lp = highspy.HighsLp()
lp.num_col_ = 1
lp.col_cost_ = (1.0,)
lp.col_lower_ = (0.0,)
lp.col_upper_ = (1.0,)
other.passModel(lp)
other.run()
assert other.modelStatusToString(other.getModelStatus()) == "Optimal"
for moments, feasible in (((0.5, 0.5, 0.5, 0.5), True), ((1, 1, 1, -1), False)):
    verdict = decide(build_bell(moments, [0.0] * 8), CouplingConstraint.MAX_EQUALITY)
    assert verdict.feasible is feasible, verdict
print("ok")
"""


def test_decide_after_another_instance_ran_with_two_threads():
    # HiGHS keeps one task scheduler per process.  After this other
    # instance's run with threads=2, a decide whose instance fixed
    # threads=1 would end with model status "Not Set", so coupling._solver
    # leaves the thread count automatic.
    proc = _run_python(["-c", _SHARED_SCHEDULER_PROBE])
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


def _run_entry_point(args, stdin=None, **env):
    return _run_python(["-m", "cbdsys.cli", *args], stdin=stdin, **env)


def test_cbd_log_debug_prints_the_decide_record():
    args = ("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
            "--method", "lp")
    quiet = _run_entry_point(args)
    loud = _run_entry_point(args, CBD_LOG="debug")
    assert quiet.returncode == loud.returncode == 3
    assert quiet.stdout == loud.stdout
    assert quiet.stderr == ""
    assert loud.stderr.splitlines() == [
        "DEBUG:cbdsys.coupling:decide: m=8, 6 cliques, CNT1 LP 36 x 48,"
        " Optimal after 6 simplex iterations, degree 2 -> infeasible"
    ]


def test_cbd_log_debug_prints_the_forest_decide_record():
    # A chain of contexts is a forest: its record names the CNT1 LP it did
    # not need and no HiGHS status, even after an LP ran in the process.
    chain = ("analyze", "--input", str(INPUT_DIR / "chain.json"), "--method", "lp")
    record = (
        "DEBUG:cbdsys.coupling:decide: m=6, 5 cliques, CNT1 LP 20 x 20,"
        " forest: no LP run, degree 0 -> feasible"
    )
    loud = _run_entry_point(chain, CBD_LOG="debug")
    assert loud.returncode == 0
    assert loud.stdout == _run_entry_point(chain).stdout
    assert loud.stderr.splitlines() == [record]
    probe = (
        "import logging, sys;"
        " from cbdsys import build_bell, decide, CouplingConstraint;"
        " from cbdsys.fileio import parse_system;"
        " logging.basicConfig(level=logging.DEBUG);"
        " decide(build_bell((1, 1, 1, -1), [0.0] * 8), CouplingConstraint.MAX_EQUALITY);"
        " decide(parse_system(sys.argv[1]), CouplingConstraint.MAX_EQUALITY)"
    )
    run = _run_python(["-c", probe, str(INPUT_DIR / "chain.json")], check=True)
    assert run.stderr.splitlines()[1:] == [record]


def test_inspected_lp_has_the_size_of_the_decide_record():
    # build_feasibility_problem returns the LP that decide solves, so its
    # matrix has the rows x columns of the record above.
    from cbdsys import CouplingConstraint, build_feasibility_problem
    from cbdsys.fileio import parse_system

    system = parse_system(INPUT_DIR / "bell_pr_box.json")
    problem = build_feasibility_problem(system, CouplingConstraint.MAX_EQUALITY)
    assert problem.matrix.shape == (36, 48)


def test_cbd_log_of_a_name_that_is_not_a_level_means_info():
    # logging.BASIC_FORMAT is a format string, not a level.
    run = _run_entry_point(("--version",), CBD_LOG="basic_format")
    assert run.returncode == 0
    assert run.stderr == ""
    assert run.stdout.startswith("cbdsys, version ")


@pytest.mark.parametrize("name", ["qq_unequal_marginals.json", "double_slit_worked.json"],
                         ids=["rank2", "rank4"])
def test_equal_always_closed_form_on_inconsistent_input_points_to_lp(name):
    result = invoke(("analyze", "--input", str(INPUT_DIR / name), "--constraint",
                     "equal-always", "--method", "closed-form"))
    assert result.exit_code == 1
    assert result.stdout == ""
    [line] = result.stderr.splitlines()
    assert line.startswith("error: no closed form for equal-always on inconsistently")
    assert line.endswith("; use --method lp")


def test_text_report_labels_an_infeasible_lp_number_degree():
    result = invoke(("analyze", "--input", str(INPUT_DIR / "bell_pr_box.json"),
                     "--method", "both", "--output", "text"))
    assert result.exit_code == 3
    lines = result.stdout.splitlines()
    assert "method cyclic4: lhs 4 rhs 2 margin -2 -> contextual" in lines
    assert "method lp (max-equality): degree 2 -> infeasible (contextual)" in lines


@pytest.mark.parametrize("args,message", [
    (("double-slit", "--sweep", "3", "--seed", "-1"), "--seed must be non-negative"),
    (("double-slit", "--sweep", "3", "--witness"),
     "--witness applies to a single run, not to --sweep"),
], ids=["negative_seed", "sweep_witness"])
def test_bad_sweep_options_exit_one_with_one_error_line(args, message):
    proc = _run_entry_point(args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("args, names", [
    (("analyze", "--input", str(INPUT_DIR / "no_such_file.json")), "no_such_file.json"),
    (("analyze", "--input", str(INPUT_DIR)), str(INPUT_DIR)),
    (("analyze", "--input", str(INPUT_DIR / "bell_mixed.json"), "--method", "bogus"),
     "'bogus'"),
    # Abbreviations are refused, so --inp does not stand for --input.
    (("analyze", "--inp", str(INPUT_DIR / "bell_mixed.json")), "--input"),
    ((), "command"),
], ids=["missing_input", "directory_input", "bad_choice", "abbreviated_option",
        "no_subcommand"])
def test_usage_errors_exit_one_with_one_error_line(args, names):
    proc = _run_entry_point(args)
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ")
    assert names in line


def test_version_flag():
    result = invoke(["--version"])
    assert result == (0, "cbdsys, version 0.1.0\n", "")


def test_equals_and_space_forms_of_a_value_parse_alike():
    # Scripts write both --p=0.1 and --p 0.1.
    spaced = invoke([*_POINT, "--output", "json"])
    joined = invoke([_POINT[0], *(f"{flag}={value}" for flag, value
                                  in zip(_POINT[1::2], _POINT[2::2])), "--output", "json"])
    assert spaced.exit_code == 0, spaced.stderr
    assert joined == spaced


def test_entry_point_reads_stdin_for_a_dash():
    payload = (INPUT_DIR / "qq_identical.json").read_text()
    proc = _run_entry_point(("qq", "--input", "-", "--output", "json"), stdin=payload)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (EXPECTED_DIR / "qq_identical.json").read_text(encoding="utf-8")


def test_closed_stdin_is_an_input_error():
    # Python sets sys.stdin to None when it starts with file descriptor 0 closed.
    proc = _run_python(["-c", "import runpy, sys; sys.stdin = None;"
                        " runpy.run_module('cbdsys.cli', run_name='__main__', alter_sys=True)",
                        "qq", "--input", "-"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: cannot read stdin: it is closed\n")


def test_negative_number_is_a_value_not_an_option():
    result = invoke(["double-slit", "--p", "-0.1", *_POINT[3:]])
    assert result == (1, "", "error: p = -0.1 is negative\n")


@pytest.mark.parametrize("command", [(), ("analyze",), ("double-slit",), ("qq",)],
                         ids=["top", "analyze", "double-slit", "qq"])
def test_help_exits_zero(command):
    result = invoke([*command, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith(" ".join(("usage: cbdsys", *command)))
    assert result.stderr == ""
