"""Benchmark of the cbdsys verdict path.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout: cbdsys is imported from ./src, and
the metric names and units come from ./BENCHMARK.json.  One run builds the
workload from its seed (the set-up), then runs whole rounds of the same
operations, one call or child process at a time, until the next round would
end past --seconds.  Every output is checked against bench/reference.py.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1).  The same object goes to
bench/out/result-*.json, and a traced run also writes its spans to
bench/out/trace-*.json.  Exit status: 0 when every output not in a known
fault was correct, 1 when one was not, 2 when the run could not start.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOADS = ("cyclic-lp", "files-closed-form", "large-m", "cli-oneshot")
COUNTERS = {
    "coupling.feasible": "feasible",
    "coupling.infeasible": "infeasible",
    "coupling.boundary": "boundary",
    "coupling.solver_errors": "solver_errors",
}
SIZES = {
    "coupling.lp_rows": "lp_rows",
    "coupling.lp_cols": "lp_cols",
    "coupling.lp_nnz": "lp_nnz",
    "coupling.lp_bytes_computed": "lp_bytes",
}
#: The workload whose probe times a per-layer metric when the traced workload
#: does not call that layer: the first matching name prefix wins.
HOME = (
    ("cli.", "cli-oneshot"),
    ("coupling.lp_", "large-m"),
    ("coupling.build_m", "large-m"),
    ("coupling.decide_m", "large-m"),
    ("coupling.", "cyclic-lp"),
    ("scenarios.", "cyclic-lp"),
    ("", "files-closed-form"),
)


def home(metric: str) -> str:
    return next(workload for prefix, workload in HOME if metric.startswith(prefix))


def make(name: str, seed: int):
    import workloads

    if name == "cyclic-lp":
        return workloads.CyclicLP(seed)
    if name == "files-closed-form":
        return workloads.FilesClosedForm(seed)
    if name == "large-m":
        return workloads.LargeM(seed)
    return workloads.CliOneShot(seed, ROOT, OUT)


def measure(workload, seconds: float, trace: bool):
    """Whole rounds until the next would end past ``seconds``; traced runs
    alternate untraced and traced rounds (at least one of each)."""
    import workloads

    spans = workloads.Spans()
    rounds = []  # (traced, Round)
    durations = []
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        began = time.perf_counter()
        rounds.append((traced, workload.round(spans if traced else workloads.untraced, traced)))
        durations.append(time.perf_counter() - began)
        if traced and spans.first_round is None:
            spans.first_round = len(spans.records)
        if trace and len(rounds) < 2:
            continue
        if time.perf_counter() - start + max(durations[-2:]) > seconds:
            return rounds, spans


def fastest_round(rounds) -> list[float]:
    """Each operation's fastest time over the given rounds.  Other load on
    the machine only ever adds time, so the fastest repeat is the steadiest
    estimate of what the operation costs."""
    return [min(times) for times in zip(*(r.times for r in rounds))]


def layer_values(spans, traced_rounds: int, metrics: list[dict]) -> dict[str, float]:
    """Per-layer metrics that these spans and counters can give."""
    by_name = defaultdict(list)
    by_op = defaultdict(dict)
    for op, name, began, ended in spans.records:
        by_name[name].append(ended - began)
        by_op[op][name] = ended - began
    values = {}
    for metric in metrics:
        name = metric["name"]
        if name == "coupling.solve_us_derived":
            solves = [d["coupling.decide"] - d["coupling.build"] for d in by_op.values()
                      if "coupling.decide" in d and "coupling.build" in d]
            if solves:
                values[name] = statistics.median(solves) * 1e6
        elif name == "cli.sweep_draws_per_s":
            if by_name["cli.sweep_run"]:
                values[name] = spans.counts["sweep_draws"] / sum(by_name["cli.sweep_run"])
        elif name in COUNTERS:
            if by_name["coupling.decide"]:
                values[name] = spans.counts.get(COUNTERS[name], 0) / traced_rounds
        elif name in SIZES:
            if SIZES[name] in spans.maxima:
                values[name] = spans.maxima[SIZES[name]]
        elif name.endswith("_us") and by_name[name[:-3]]:
            values[name] = statistics.median(by_name[name[:-3]]) * 1e6
        elif name.endswith("_s") and by_name[name[:-2]]:
            values[name] = statistics.median(by_name[name[:-2]])
    return values


def probe(name: str, seed: int):
    """The workload cut down to the first operation of each kind."""
    workload = make(name, seed)
    first = {}
    for op in workload.ops:
        first.setdefault(op.kind, op)
    workload.ops = list(first.values())
    return workload


def per_layer(name: str, seed: int, rounds, spans, metrics: list[dict]):
    """Per-layer values, and the problems of the probe rounds.  Layers this
    workload calls are timed on its own traffic.  Every traced run reports
    every per-layer metric, so a layer this workload does not call is timed
    on one traced round of a probe of its home workload (HOME)."""
    import workloads

    traced = [r for is_traced, r in rounds if is_traced]
    plain = [r for is_traced, r in rounds if not is_traced]
    values = layer_values(spans, len(traced), metrics)
    values["trace.overhead_pct"] = 100.0 * (sum(fastest_round(traced)) / sum(fastest_round(plain)) - 1.0)
    missing = [m["name"] for m in metrics if m["name"] not in values]
    problems = []
    for other in dict.fromkeys(home(metric) for metric in missing):
        workload = probe(other, seed)
        probe_spans = workloads.Spans()
        try:
            problems += [f"probe of {other}: {p}" for p in workload.round(probe_spans, True).problems]
        finally:
            if hasattr(workload, "close"):
                workload.close()
        probed = layer_values(probe_spans, 1, metrics)
        values.update({metric: probed[metric] for metric in missing
                       if home(metric) == other and metric in probed})
    return values, problems


def run_one(args) -> int:
    if not (ROOT / "src" / "cbdsys" / "__init__.py").is_file():
        print(f"error: no cbdsys sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import cbdsys
    import selftest

    if Path(cbdsys.__file__).resolve().parent != ROOT / "src" / "cbdsys":
        print(f"error: cbdsys imported from {cbdsys.__file__}, not from this checkout", file=sys.stderr)
        return 2
    try:
        selftest.run_all()
    except AssertionError as exc:
        print(f"error: the benchmark's reference fails its own checks: {exc!r}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = make(args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    try:
        rounds, spans = measure(workload, args.seconds, bool(args.trace))
    finally:
        if hasattr(workload, "close"):
            workload.close()
    attempted = sum(len(r.times) for _, r in rounds)
    failed = sum(r.failed for _, r in rounds)
    problems = [p for _, r in rounds for p in r.problems]
    known = [r.known for _, r in rounds]
    if any(k != known[0] for k in known):
        problems.append(f"known-fault counts differ between rounds: {known}")

    if args.trace:
        metrics = spec["per_layer"]
        values, probe_problems = per_layer(args.workload, args.seed, rounds, spans, metrics)
        problems += probe_problems
    else:
        metrics = spec["end_to_end"]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
        fastest = fastest_round([r for _, r in rounds])
        values = {
            "ops_per_s": len(fastest) / sum(fastest),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "setup_s": setup_s,
        }
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        (OUT / f"trace-{stem}.json").write_text(json.dumps({
            "rounds": [{"traced": t, "operation_s": r.times} for t, r in rounds],
            "fields": ["operation", "name", "start_s", "end_s"],
            "spans_of_first_traced_round": spans.records[: spans.first_round],
        }) + "\n")
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds, attempted {attempted}, failed {failed}")
    print(f"  known faults per round: {dict(sorted(known[0].items())) or 'none'}")
    for m in metrics:
        print(f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process, so each set-up is a cold one."""
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
        status = max(status, done.returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
