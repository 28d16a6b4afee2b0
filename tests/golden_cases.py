"""Golden regression corpus: inputs, CLI invocations, and expected outcomes.

Each case pins an exact CLI invocation to an exit code and, for successful
JSON runs, a byte-identical stdout transcript under tests/golden/expected/.
Regenerate the corpus with ``python3 tests/regen_golden.py`` after intended
output changes and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

GOLDEN_DIR = Path(__file__).parent / "golden"
INPUT_DIR = GOLDEN_DIR / "inputs"
EXPECTED_DIR = GOLDEN_DIR / "expected"


@dataclass(frozen=True)
class GoldenCase:
    name: str
    args: tuple[str, ...]          # --input paths are relative to INPUT_DIR
    exit_code: int
    golden: str | None = None      # expected stdout file under EXPECTED_DIR
    stderr_contains: str | None = None


def resolve_args(case: GoldenCase) -> list[str]:
    out = []
    expect_path = False
    for arg in case.args:
        if expect_path:
            out.append(str(INPUT_DIR / arg))
            expect_path = False
        else:
            out.append(arg)
            expect_path = arg == "--input"
    return out


CASES: tuple[GoldenCase, ...] = (
    GoldenCase(
        name="bell_aligned",
        args=("analyze", "--input", "bell_aligned.json", "--method", "both",
              "--output", "json"),
        exit_code=0,
        golden="bell_aligned.json",
    ),
    GoldenCase(
        name="bell_pr_box",
        args=("analyze", "--input", "bell_pr_box.json", "--method", "both",
              "--output", "json"),
        exit_code=3,
        golden="bell_pr_box.json",
    ),
    GoldenCase(
        name="bell_pr_box_equal_always",
        args=("analyze", "--input", "bell_pr_box.json", "--constraint",
              "equal-always", "--method", "both", "--output", "json"),
        exit_code=3,
        golden="bell_pr_box_equal_always.json",
    ),
    GoldenCase(
        name="bell_mixed",
        args=("analyze", "--input", "bell_mixed.json", "--output", "json"),
        exit_code=0,
        golden="bell_mixed.json",
    ),
    GoldenCase(
        name="qq_identical",
        args=("qq", "--input", "qq_identical.json", "--output", "json"),
        exit_code=0,
        golden="qq_identical.json",
    ),
    GoldenCase(
        name="qq_unequal_marginals",
        args=("qq", "--input", "qq_unequal_marginals.json", "--output", "json"),
        exit_code=0,
        golden="qq_unequal_marginals.json",
    ),
    GoldenCase(
        name="qq_opposite",
        args=("qq", "--input", "qq_opposite.json", "--output", "json"),
        exit_code=3,
        golden="qq_opposite.json",
    ),
    GoldenCase(
        name="double_slit_worked_file",
        args=("analyze", "--input", "double_slit_worked.json", "--method", "both",
              "--output", "json"),
        exit_code=0,
        golden="double_slit_worked_file.json",
    ),
    GoldenCase(
        name="single_context",
        args=("analyze", "--input", "single_context.json", "--output", "json",
              "--witness"),
        exit_code=0,
        golden="single_context.json",
    ),
    GoldenCase(
        name="chain_lp",
        args=("analyze", "--input", "chain.json", "--method", "lp",
              "--output", "json"),
        exit_code=0,
        golden="chain_lp.json",
    ),
    GoldenCase(
        name="cycle_rank3_contextual",
        args=("analyze", "--input", "cycle_rank3_contextual.json", "--method",
              "both", "--output", "json"),
        exit_code=3,
        golden="cycle_rank3_contextual.json",
    ),
    GoldenCase(
        name="cycle_rank5_gaps",
        args=("analyze", "--input", "cycle_rank5_gaps.json", "--method", "both",
              "--output", "json"),
        exit_code=0,
        golden="cycle_rank5_gaps.json",
    ),
    GoldenCase(
        name="double_slit_point",
        args=("double-slit", "--p", "0.1", "--q", "0.1", "--pp", "0.08",
              "--qp", "0.08", "--rp", "0.05", "--output", "json", "--witness"),
        exit_code=0,
        golden="double_slit_point.json",
    ),
    GoldenCase(
        name="double_slit_sweep",
        args=("double-slit", "--sweep", "50", "--seed", "42", "--output", "json"),
        exit_code=0,
        golden="double_slit_sweep.json",
    ),
    GoldenCase(
        name="malformed_json",
        args=("analyze", "--input", "malformed.json"),
        exit_code=1,
        stderr_contains="not valid JSON",
    ),
    GoldenCase(
        name="bad_sum",
        args=("analyze", "--input", "bad_sum.json"),
        exit_code=1,
        stderr_contains="sums to",
    ),
    GoldenCase(
        name="wrong_length",
        args=("analyze", "--input", "wrong_length.json"),
        exit_code=1,
        stderr_contains="expected 4",
    ),
    GoldenCase(
        name="connection_of_size_three",
        args=("analyze", "--input", "connection_three.json", "--method", "lp"),
        exit_code=1,
        stderr_contains="at most 2",
    ),
    GoldenCase(
        name="context_of_40_contents",
        args=("analyze", "--input", "context_40_contents.json"),
        exit_code=1,
        stderr_contains="context 'c' lists 40 contents; the limit is 20",
    ),
    GoldenCase(
        name="context_of_64_contents",
        args=("analyze", "--input", "context_64_contents.json"),
        exit_code=1,
        stderr_contains="context 'c' lists 64 contents; the limit is 20",
    ),
    GoldenCase(
        name="nan_probs",
        args=("analyze", "--input", "nan_probs.json"),
        exit_code=1,
        stderr_contains="entry 0 is not a finite number (nan)",
    ),
    GoldenCase(
        name="qq_nan_probs",
        args=("qq", "--input", "nan_probs.json"),
        exit_code=1,
        stderr_contains="entry 0 is not a finite number (nan)",
    ),
    GoldenCase(
        name="huge_probs",
        args=("analyze", "--input", "huge_probs.json"),
        exit_code=1,
        stderr_contains="entry 1 exceeds 1 (1e+308)",
    ),
    GoldenCase(
        name="qq_huge_probs",
        args=("qq", "--input", "huge_probs.json"),
        exit_code=1,
        stderr_contains="entry 1 exceeds 1 (1e+308)",
    ),
    GoldenCase(
        name="non_utf8",
        args=("analyze", "--input", "non_utf8.json"),
        exit_code=1,
        stderr_contains="cannot decode input: 'utf-8' codec can't decode byte 0xff",
    ),
    GoldenCase(
        name="qq_non_utf8",
        args=("qq", "--input", "non_utf8.json"),
        exit_code=1,
        stderr_contains="cannot decode input: 'utf-8' codec can't decode byte 0xff",
    ),
    GoldenCase(
        name="nonbinary_values",
        args=("analyze", "--input", "nonbinary_values.json"),
        exit_code=1,
        stderr_contains="binary",
    ),
    GoldenCase(
        name="closed_form_needs_cycle",
        args=("analyze", "--input", "chain.json", "--method", "closed-form"),
        exit_code=1,
        stderr_contains="cyclic",
    ),
    GoldenCase(
        name="equal_always_closed_form_inconsistent",
        args=("analyze", "--input", "qq_unequal_marginals.json", "--constraint",
              "equal-always", "--method", "closed-form"),
        exit_code=1,
        stderr_contains="inconsistently connected",
    ),
    GoldenCase(
        name="double_slit_smallness_violation",
        args=("double-slit", "--p", "0.5", "--q", "0.1", "--pp", "0.08",
              "--qp", "0.08", "--rp", "0.05"),
        exit_code=1,
        stderr_contains="smallness",
    ),
    GoldenCase(
        name="qq_needs_rank2",
        args=("qq", "--input", "bell_pr_box.json"),
        exit_code=1,
        stderr_contains="rank 2",
    ),
)


class Run(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(argv: list[str], stdin: bytes = b"") -> Run:
    """Run ``cbdsys.cli.main(argv)`` in this process with ``stdin`` as its
    standard input, capturing its exit code, stdout and stderr.  The input
    stream decodes as a POSIX locale's does: UTF-8, with undecodable bytes
    turned into surrogates."""
    from cbdsys.cli import main

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            main(list(argv))
        code = 0
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code
    finally:
        sys.stdin = saved
    return Run(code, out.getvalue(), err.getvalue())


def run_case(case: GoldenCase) -> Run:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    return invoke(resolve_args(case))
