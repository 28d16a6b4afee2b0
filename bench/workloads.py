"""The four workloads.

Each workload object is built from a seed (its set-up: corpus generation
and warm-up) and then runs whole rounds over the same fixed set of
operations (``ops``).  ``round(call, traced)`` returns the program time of
every operation, the number of operations that failed, how many of them
failed by each known fault, and a description of every other failure.
Calls into cbdsys go through ``call(span name, function, *args)``:
``untraced`` just calls, a ``Spans`` also records the call.  A traced round adds extra calls (``traced=True``)
that time layers the main path reaches only inside another call; they run
outside the operation's timer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import cbdsys
import corpus
import reference as ref
from cbdsys.report import (
    criterion_entry,
    engine_entry,
    overall_verdict,
    render_json,
    render_text,
    system_summary,
)
from cbdsys.system import connections, consistency, require_valid

CONSTRAINT = {c.value: c for c in cbdsys.CouplingConstraint}
REFUSED = "refused"


def untraced(name, fn, *args):
    return fn(*args)


class Spans:
    """Spans around calls into cbdsys, kept in memory: (operation, name,
    start, end) with perf_counter times; plus counters of LP sizes and
    verdicts."""

    def __init__(self):
        self.records: list[tuple[int, str, float, float]] = []
        self.op = 0
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.first_round: int | None = None  # records in the first traced round

    def __call__(self, name, fn, *args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.records.append((self.op, name, start, perf_counter()))

    def alias(self, name: str) -> None:
        """Record the last span once more under another name."""
        op, _, start, end = self.records[-1]
        self.records.append((op, name, start, end))

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def lp_size(self, problem) -> None:
        matrix = problem.matrix
        if hasattr(matrix, "nnz"):
            nnz = int(matrix.nnz)
            nbytes = matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
        else:
            nnz = int(np.count_nonzero(matrix))
            nbytes = matrix.nbytes
        rows, cols = matrix.shape
        for key, value in (("lp_rows", rows), ("lp_cols", cols), ("lp_nnz", nnz),
                           ("lp_bytes", nbytes + problem.rhs.nbytes)):
            self.maxima[key] = max(self.maxima.get(key, 0), int(value))


@dataclass
class Round:
    times: list[float] = field(default_factory=list)
    failed: int = 0
    known: dict[str, int] = field(default_factory=dict)  # failures per known fault
    problems: list[str] = field(default_factory=list)

    def fail(self, what: str, known: str | None = None) -> None:
        """Count a failed operation: under ``known`` when it is that known
        fault, otherwise as a problem."""
        self.failed += 1
        if known is None:
            self.problems.append(what)
        else:
            self.known[known] = self.known.get(known, 0) + 1


def criterion_for(constraint: str, rank: int):
    """The closed form the CLI's auto method picks for a cyclic system."""
    if constraint == ref.MAX_EQUALITY:
        return ("cyclic4", cbdsys.cbd_cyclic4) if rank == 4 else ("cyclic2", cbdsys.cbd_cyclic2)
    return ("chsh_fine", cbdsys.chsh_fine) if rank == 4 else ("cyclic2", cbdsys.cbd_cyclic2)


def check_criterion(case: corpus.Case, result) -> str | None:
    expect = case.expect
    if result is REFUSED:
        if case.constraint == ref.EQUAL_ALWAYS and ref.marginal_gap(case.spec) > ref.EPS_PROB:
            return None
        return "closed form refused a consistently connected system"
    if result.noncontextual != expect.noncontextual:
        return f"closed form says noncontextual={result.noncontextual}"
    if abs(result.lhs - expect.lhs) > 1e-9 or abs(result.rhs - expect.rhs) > 1e-9:
        return f"criterion sides {result.lhs!r} <= {result.rhs!r}, reference {expect.lhs!r} <= {expect.rhs!r}"
    return None


def check_witness(spec, constraint: str, variables, probs) -> str | None:
    defect = ref.witness_defect(spec, constraint, [tuple(v) for v in variables], probs)
    return None if defect <= ref.EPS_FEAS else f"witness defect {defect:g}"


def check_lp(case: corpus.Case, verdict) -> tuple[str, str] | None:
    """None, or (kind of failure, description)."""
    if isinstance(verdict, cbdsys.SolverError):
        return "SolverError", f"SolverError: {verdict}"
    if verdict.feasible != case.expect.noncontextual:
        return "wrong LP verdict", f"LP says feasible={verdict.feasible}"
    if verdict.feasible:
        defect = check_witness(case.spec, case.constraint, verdict.witness.variables, verdict.witness.probs)
        if defect is not None:
            return "bad witness", defect
    return None


def record_lp(spans: Spans, case: corpus.Case, verdict, per_m: bool = False) -> None:
    """Traced extras around an LP decision: the LP as built (also under its
    variable count when ``per_m``), the verdict counters, and the cost of
    re-checking the witness."""
    constraint = CONSTRAINT[case.constraint]
    spans.lp_size(spans("coupling.build", cbdsys.build_feasibility_problem, case.system, constraint))
    if per_m:
        spans.alias(f"coupling.build_m{corpus.m_of(case)}")
    if isinstance(verdict, cbdsys.SolverError):
        spans.count("solver_errors")
        return
    spans.count("feasible" if verdict.feasible else "infeasible")
    spans.count("boundary", int(verdict.boundary))
    if verdict.feasible:
        spans("coupling.witness_check", cbdsys.witness_violation, case.system, constraint, verdict.witness)


class CyclicLP:
    """Rank-2 and rank-4 systems decided by their closed form and by the LP."""

    def __init__(self, seed: int):
        self.ops = corpus.cyclic_lp(seed)
        self.rng = np.random.default_rng([seed, 9])
        seen = set()
        for case in self.ops:
            if case.kind not in seen:
                seen.add(case.kind)
                self.decide(case, untraced)

    def decide(self, case: corpus.Case, call):
        if case.params is not None:
            closed = call("scenarios.check_double_slit", cbdsys.check_double_slit, case.params)
        else:
            layout = call("cyclic.detect", cbdsys.detect_cyclic, case.system)
            _, fn = criterion_for(case.constraint, layout.rank)
            try:
                closed = call("cyclic.criterion", fn, case.system, layout)
            except cbdsys.InconsistentSystemError:
                closed = REFUSED
        try:
            verdict = call("coupling.decide", cbdsys.decide, case.system, CONSTRAINT[case.constraint])
        except cbdsys.SolverError as exc:
            verdict = exc
        return closed, verdict

    def round(self, call, traced: bool) -> Round:
        out = Round()
        for i, case in enumerate(self.ops):
            if traced:
                call.op = i
            start = perf_counter()
            closed, verdict = self.decide(case, call)
            out.times.append(perf_counter() - start)
            problem = check_criterion(case, closed)
            lp_problem = check_lp(case, verdict)
            if problem is None and lp_problem is None and case.kind in ("double-slit", "rank2-matched"):
                if closed is REFUSED or not closed.noncontextual or not verdict.feasible:
                    problem = "a double-slit or QQ-matched draw came out contextual"
            if problem is not None:
                out.fail(f"{case.kind}: {problem}")
            elif lp_problem is not None:
                # The boundary band is a known fault of the LP route only.
                kind, what = lp_problem
                out.fail(f"{case.kind}: {what}", known=kind if case.boundary else None)
            if traced:
                call("system.validate", require_valid, case.system)
                call("system.connections", connections, case.system)
                record_lp(call, case, verdict)
                if case.params is not None:
                    call("scenarios.sample_build",
                         lambda: cbdsys.build_double_slit(cbdsys.sample_double_slit_params(self.rng)))
        return out


class FilesClosedForm:
    """System texts through the analyze --method auto path, closed forms only."""

    def __init__(self, seed: int):
        self.ops = corpus.files_closed_form(seed)
        self.report(self.ops[0], untraced)

    def report(self, case: corpus.Case, call):
        system = call("fileio.parse", cbdsys.parse_system_text, case.text)
        layout = call("cyclic.detect", cbdsys.detect_cyclic, system)
        # Under equal-always, auto picks the closed form only for a
        # consistently connected system (the LP otherwise).
        if case.constraint == ref.EQUAL_ALWAYS and not call(
            "system.consistency", consistency, system
        ).consistently_connected:
            return system, "lp", None, None
        method, fn = criterion_for(case.constraint, layout.rank)
        result = call("cyclic.criterion", fn, system, layout)
        summary = call("report.summary", system_summary, system)
        results = [criterion_entry(method, result)]
        report = {
            "command": "analyze",
            "constraint": case.constraint,
            "method": "auto",
            "system": summary,
            "results": results,
            "verdict": overall_verdict(results),
            "engine": engine_entry(),
        }
        as_json = call("report.render_json", render_json, report)
        as_text = call("report.render_text", render_text, report)
        return system, method, as_json, as_text

    def check(self, case: corpus.Case, method: str, as_json: str, as_text: str) -> str | None:
        expect = case.expect
        if method != criterion_for(case.constraint, expect.rank)[0]:
            return f"method {method} for a rank-{expect.rank} system"
        verdict = "noncontextual" if expect.noncontextual else "contextual"
        report = json.loads(as_json)
        entry = report["results"][0]
        if report["verdict"] != verdict or entry["noncontextual"] != expect.noncontextual:
            return f"report verdict {report['verdict']}"
        if report["system"]["cyclic_rank"] != expect.rank:
            return f"cyclic rank {report['system']['cyclic_rank']}"
        if abs(entry["lhs"] - expect.lhs) > 1e-9 or abs(entry["rhs"] - expect.rhs) > 1e-9:
            return f"criterion sides {entry['lhs']!r} <= {entry['rhs']!r}"
        contexts = {ctx.id: ctx for ctx in case.spec}
        for conn in report["system"]["connections"]:
            for member in conn["members"]:
                want = ref.plus_probability(contexts[member["context"]], conn["content"])
                if abs(member["p_plus"] - want) > 1e-9:
                    return f"marginal of {conn['content']} in {member['context']}"
        if as_text.rstrip("\n").rsplit("\n", 1)[-1] != f"verdict: {verdict}":
            return "text report does not end with the verdict"
        return None

    def round(self, call, traced: bool) -> Round:
        out = Round()
        for i, case in enumerate(self.ops):
            if traced:
                call.op = i
            start = perf_counter()
            try:
                system, method, as_json, as_text = self.report(case, call)
            except cbdsys.CbdError as exc:
                out.times.append(perf_counter() - start)
                out.fail(f"{case.kind}: {type(exc).__name__}: {exc}")
                continue
            out.times.append(perf_counter() - start)
            problem = self.check(case, method, as_json, as_text)
            if problem is not None:
                out.fail(f"{case.kind}: {problem}")
            if traced:
                call("system.validate", require_valid, system)
                call("system.connections", connections, system)
                call("fileio.serialize", cbdsys.serialize_system, system)
        return out


class LargeM:
    """LP-only systems at m = 10..16 variables."""

    def __init__(self, seed: int):
        self.ops = corpus.large_m(seed)
        cbdsys.decide(self.ops[0].system, CONSTRAINT[self.ops[0].constraint])

    def round(self, call, traced: bool) -> Round:
        out = Round()
        for i, case in enumerate(self.ops):
            if traced:
                call.op = i
            start = perf_counter()
            try:
                verdict = call("coupling.decide", cbdsys.decide, case.system, CONSTRAINT[case.constraint])
            except cbdsys.SolverError as exc:
                verdict = exc
            out.times.append(perf_counter() - start)
            problem = check_lp(case, verdict)
            if problem is not None:
                out.fail(f"{case.kind} {case.constraint}: {problem[1]}")
            if traced:
                call.alias(f"coupling.decide_m{corpus.m_of(case)}")
                record_lp(call, case, verdict, per_m=True)
        return out


# --- cli-oneshot -------------------------------------------------------------

NAN_TEXT = (
    '{"contents": [{"id": "A"}, {"id": "B"}], "contexts": ['
    '{"id": "AB", "contents": ["A", "B"], "probs": [NaN, 0.5, 0.5, 0.0]},'
    ' {"id": "BA", "contents": ["A", "B"], "probs": [0.25, 0.25, 0.25, 0.25]}]}\n'
)


@dataclass
class Invocation:
    kind: str                  # "nolp", "lp" or "sweep": how it is timed
    args: list[str]
    spec: list | None = None   # reference tables when a verdict is expected
    constraint: str = ref.MAX_EQUALITY
    error: bool = False        # an input error: exit 1 with an error: line
    known_fault: bool = False  # fails today because of a named fault
    draws: int = 0             # --sweep N


class CliOneShot:
    """One fresh `python -m cbdsys.cli` process per invocation."""

    def __init__(self, seed: int, root: Path, out_dir: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.dir = Path(tempfile.mkdtemp(prefix=f"cli-{seed}-", dir=out_dir))
        self.ops = self.plan(seed)
        self.child(["-c", "pass"])
        self.child(["-m", "cbdsys.cli", "--version"])

    def close(self) -> None:
        for path in self.dir.iterdir():
            path.unlink()
        self.dir.rmdir()

    def write(self, name: str, text: str) -> str:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def plan(self, seed: int) -> list[Invocation]:
        rng = np.random.default_rng([seed, 4])
        ME, EA = ref.MAX_EQUALITY, ref.EQUAL_ALWAYS
        specs = {
            "rank2_matched": corpus.draw(rng, corpus.rank2_matched, ME, "").spec,
            "rank4_general": corpus.draw(rng, corpus.rank4_general, ME, "").spec,
        }
        path = {name: self.write(f"{name}.json", corpus.file_text(spec)) for name, spec in specs.items()}
        bad = corpus.rank2_general(rng)
        path["bad_sum"] = self.write("bad_sum.json", corpus.file_text(
            [ref.Context(c.id, c.contents, c.probs * 1.1) for c in bad]))
        path["nan"] = self.write("nan.json", NAN_TEXT)
        golden = self.root / "tests" / "golden" / "inputs"
        for name in ("bell_pr_box", "qq_unequal_marginals"):
            path[name] = str(golden / f"{name}.json")
            specs[name] = corpus.spec_from_file((golden / f"{name}.json").read_text(encoding="utf-8"))

        params = cbdsys.sample_double_slit_params(rng)
        point = [f"--p={params.p!r}", f"--q={params.q!r}", f"--pp={params.p_prime!r}",
                 f"--qp={params.q_prime!r}", f"--rp={params.r_prime!r}"]
        point_spec = ref.double_slit_spec(params.p, params.q, params.p_prime, params.q_prime, params.r_prime)
        J = ["--output", "json"]

        def verdict(kind, name, *args, constraint=ME):
            return Invocation(kind, [*args[:1], "--input", path[name], *args[1:]],
                              spec=specs[name], constraint=constraint)

        def error(*args, known_fault=False):
            return Invocation("nolp", list(args), error=True, known_fault=known_fault)

        return [
            verdict("nolp", "rank2_matched", "qq", *J),
            verdict("nolp", "rank4_general", "analyze"),
            verdict("nolp", "qq_unequal_marginals", "qq", *J),
            error("analyze", "--input", path["bad_sum"]),
            error("analyze", "--input", path["nan"], known_fault=True),
            error("qq", "--input", path["nan"], known_fault=True),
            verdict("lp", "rank4_general", "analyze", "--method", "both", *J),
            verdict("lp", "bell_pr_box", "analyze", "--constraint", EA, "--method", "lp", constraint=EA),
            Invocation("lp", ["double-slit", *point, *J, "--witness"], spec=point_spec),
            Invocation("sweep", ["double-slit", "--sweep", "50", "--seed", str(seed), *J], draws=50),
        ]

    def child(self, args: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *args], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=150,
        )

    def check(self, inv: Invocation, done: subprocess.CompletedProcess) -> str | None:
        if "Traceback" in done.stderr:
            return f"traceback, exit {done.returncode}: {done.stderr.strip().splitlines()[-1]}"
        if inv.error:
            lines = done.stderr.strip().splitlines()
            if done.returncode != 1 or not lines or not lines[-1].startswith("error:"):
                return f"exit {done.returncode} without an error: line"
            return None
        if inv.draws:
            counts = json.loads(done.stdout)["counts"] if done.returncode == 0 else None
            if counts != {"noncontextual": inv.draws, "contextual": 0, "disagreements": 0}:
                return f"sweep exit {done.returncode}, counts {counts}"
            return None
        expect = ref.verdict(inv.spec, inv.constraint)
        want = 0 if expect.noncontextual else 3
        if done.returncode != want:
            return f"exit {done.returncode}, reference says {want}"
        if "--output" in inv.args:
            report = json.loads(done.stdout)
            if report["verdict"] != ("noncontextual" if expect.noncontextual else "contextual"):
                return f"report verdict {report['verdict']}"
            if report.get("agreement") is False:
                return "methods disagree"
            if "qq_statistic" in report and abs(report["qq_statistic"] - ref.qq(inv.spec)) > 1e-9:
                return f"qq statistic {report['qq_statistic']!r}"
            witness = report.get("witness")
            if witness is not None:
                return check_witness(inv.spec, inv.constraint, witness["variables"], witness["probs"])
        return None

    def round(self, call, traced: bool) -> Round:
        out = Round()
        for i, inv in enumerate(self.ops):
            if traced:
                call.op = i
            start = perf_counter()
            done = call(f"cli.{inv.kind}_run", self.child, ["-m", "cbdsys.cli", *inv.args])
            out.times.append(perf_counter() - start)
            if traced and inv.draws:
                call.count("sweep_draws", inv.draws)
            problem = self.check(inv, done)
            if problem is not None:
                # The NaN fault shows as a traceback; any other failure is new.
                known = inv.known_fault and problem.startswith("traceback")
                out.fail(f"{' '.join(inv.args)}: {problem}", known="NaN traceback" if known else None)
        if traced:
            for _ in range(2):
                call("cli.interpreter", self.child, ["-c", "pass"])
                call("cli.import", self.child, ["-c", "import cbdsys.cli"])
        return out
