#!/usr/bin/env python3
"""Regenerate the golden regression corpus (inputs and expected outputs).

Run from anywhere: ``python3 tests/regen_golden.py``.  Review the git diff
afterwards; expected outputs are byte-compared by the test suite.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from golden_cases import CASES, EXPECTED_DIR, INPUT_DIR, run_case
from helpers import cycle_from_moments

from cbdsys import (
    DoubleSlitParams,
    QuestionOrderParams,
    build_bell,
    build_double_slit,
    build_question_order,
    build_system,
    serialize_system,
)


def build_inputs() -> dict[Path, bytes]:
    """Every input file's path and bytes."""
    files: dict[Path, bytes] = {}

    def write(path: Path, text: str) -> None:
        files[path] = text.encode("utf-8")

    write(INPUT_DIR / "bell_aligned.json",
          serialize_system(build_bell((1, 1, 1, 1), [0.0] * 8)))
    write(INPUT_DIR / "bell_pr_box.json",
          serialize_system(build_bell((1, 1, 1, -1), [0.0] * 8)))
    write(INPUT_DIR / "bell_mixed.json",
          serialize_system(build_bell((0.5, 0.5, 0.5, 0.5), [0.0] * 8)))
    write(INPUT_DIR / "qq_identical.json",
          serialize_system(build_question_order(
              QuestionOrderParams.from_probs([0.1, 0.4, 0.2, 0.3],
                                             [0.1, 0.4, 0.2, 0.3]))))
    write(INPUT_DIR / "qq_unequal_marginals.json",
          serialize_system(build_question_order(
              QuestionOrderParams.from_probs([0.125, 0.25, 0.125, 0.5],
                                             [0.5, 0.125, 0.25, 0.125]))))
    write(INPUT_DIR / "qq_opposite.json",
          serialize_system(build_question_order(
              QuestionOrderParams.from_probs([0.5, 0.0, 0.0, 0.5],
                                             [0.0, 0.5, 0.5, 0.0]))))
    write(INPUT_DIR / "double_slit_worked.json",
          serialize_system(build_double_slit(
              DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))))
    write(INPUT_DIR / "single_context.json",
          serialize_system(build_system(
              ["a", "b"], [("c", ["a", "b"], [0.1, 0.2, 0.3, 0.4])])))
    write(INPUT_DIR / "chain.json",
          serialize_system(build_system(
              ["q1", "q2", "q3", "q4"],
              [("c1", ["q1", "q2"], [0.4, 0.1, 0.1, 0.4]),
               ("c2", ["q2", "q3"], [0.4, 0.1, 0.1, 0.4]),
               ("c3", ["q3", "q4"], [0.4, 0.1, 0.1, 0.4])])))
    # Leggett-Garg shape: s_odd 2.25 against the rank-3 bound 1.
    write(INPUT_DIR / "cycle_rank3_contextual.json",
          serialize_system(cycle_from_moments([(0.0, 0.0, 0.75), (0.0, 0.0, 0.75),
                                               (0.0, 0.0, -0.75)])))
    # KCBS shape: s_odd 3.75 exceeds 3, but the connection gaps (sum 1)
    # lift the max-equality bound to 4.
    write(INPUT_DIR / "cycle_rank5_gaps.json",
          serialize_system(cycle_from_moments(
              [(0.125, -0.125, -0.75)] * 3
              + [(0.125, 0.0, -0.75), (0.0, -0.125, -0.75)])))

    # Deliberately broken documents.
    write(INPUT_DIR / "malformed.json", "{\n")
    write(INPUT_DIR / "bad_sum.json", """\
{
  "contents": [{"id": "q"}],
  "contexts": [{"id": "c", "contents": ["q"], "probs": [0.6, 0.6]}]
}
""")
    write(INPUT_DIR / "wrong_length.json", """\
{
  "contents": [{"id": "a"}, {"id": "b"}],
  "contexts": [{"id": "c", "contents": ["a", "b"], "probs": [0.5, 0.5]}]
}
""")
    write(INPUT_DIR / "connection_three.json", """\
{
  "contents": [{"id": "q1"}, {"id": "q2"}, {"id": "q3"}, {"id": "q4"}],
  "contexts": [
    {"id": "c1", "contents": ["q1", "q2"], "probs": [0.25, 0.25, 0.25, 0.25]},
    {"id": "c2", "contents": ["q1", "q3"], "probs": [0.25, 0.25, 0.25, 0.25]},
    {"id": "c3", "contents": ["q1", "q4"], "probs": [0.25, 0.25, 0.25, 0.25]}
  ]
}
""")
    write(INPUT_DIR / "nan_probs.json", """\
{
  "contents": [{"id": "A"}, {"id": "B"}],
  "contexts": [
    {"id": "AB", "contents": ["A", "B"], "probs": [NaN, 0.5, 0.5, 0.0]},
    {"id": "BA", "contents": ["A", "B"], "probs": [0.1, 0.4, 0.2, 0.3]}
  ]
}
""")
    write(INPUT_DIR / "huge_probs.json", """\
{
  "contents": [{"id": "A"}, {"id": "B"}],
  "contexts": [
    {"id": "AB", "contents": ["A", "B"], "probs": [1e308, 1e308, 0.0, 0.0]},
    {"id": "BA", "contents": ["A", "B"], "probs": [0.1, 0.4, 0.2, 0.3]}
  ]
}
""")
    # A valid system saved as UTF-16 with a byte-order mark (bytes ff fe),
    # which is not UTF-8 text.
    files[INPUT_DIR / "non_utf8.json"] = (
        "\ufeff" + files[INPUT_DIR / "qq_identical.json"].decode("utf-8")
    ).encode("utf-16-le")
    write(INPUT_DIR / "nonbinary_values.json", """\
{
  "contents": [{"id": "q"}],
  "contexts": [{"id": "c", "contents": ["q"], "probs": [0.5, 0.5]}],
  "values": {"Maybe": 0}
}
""")
    # One context past M_MAX, its probs an outcome map: refused before its
    # 2**k probabilities are allocated.
    for k in (40, 64):
        ids = [f"q{i}" for i in range(k)]
        write(INPUT_DIR / f"context_{k}_contents.json", json.dumps({
            "contents": [{"id": q} for q in ids],
            "contexts": [{"id": "c", "contents": ids, "probs": {",".join(["Yes"] * k): 1.0}}],
        }) + "\n")
    return files


def build_expected() -> None:
    for case in CASES:
        if case.golden is None:
            continue
        exit_code, stdout, stderr = run_case(case)
        if exit_code != case.exit_code:
            raise SystemExit(
                f"{case.name}: expected exit {case.exit_code}, got {exit_code}\n"
                f"stderr: {stderr}"
            )
        (EXPECTED_DIR / case.golden).write_text(stdout, encoding="utf-8")
        print(f"wrote expected/{case.golden} ({len(stdout)} bytes)")


if __name__ == "__main__":
    for path, data in build_inputs().items():
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    print(f"inputs written to {INPUT_DIR}")
    build_expected()
