"""One untimed round of each benchmark workload: three in process, and
cli-oneshot in its child processes; and one traced round of the three in
process.

The benchmark under ``bench/`` checks every output it times against its own
reference; a round here runs those same checks, so a change that would make
the benchmark report a failure fails here first.  Only reads ``bench/``:
nothing is written there, not even bytecode.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        import workloads
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return workloads


@pytest.mark.parametrize("name", ["CyclicLP", "LargeM", "FilesClosedForm"])
def test_one_round_has_no_failure(workloads, name):
    workload = getattr(workloads, name)(1)
    done = workload.round(workloads.untraced, False)
    assert len(done.times) == len(workload.ops) > 0
    assert done.failed == 0
    assert done.problems == []


@pytest.mark.parametrize(
    "name,solves_lp", [("CyclicLP", True), ("LargeM", True), ("FilesClosedForm", False)]
)
def test_one_traced_round_has_no_failure(workloads, name, solves_lp):
    # A traced round makes the extra calls behind the per-layer metrics;
    # Spans.lp_size reads each LP's dense problem matrix.
    workload = getattr(workloads, name)(1)
    spans = workloads.Spans()
    done = workload.round(spans, True)
    assert len(done.times) == len(workload.ops) > 0
    assert done.failed == 0
    assert done.problems == []
    if solves_lp:
        assert all(spans.maxima[key] > 0 for key in ("lp_rows", "lp_cols", "lp_nnz"))


def test_one_cli_round_has_no_failure(workloads, tmp_path):
    # The only workload that checks exit codes and error: lines, for input
    # errors such as a bunch that sums past 1 and a NaN entry.
    workload = workloads.CliOneShot(1, BENCH.parent, tmp_path)
    try:
        done = workload.round(workloads.untraced, False)
    finally:
        workload.close()
    assert len(done.times) == len(workload.ops) > 0
    assert done.failed == 0
    assert done.problems == []
