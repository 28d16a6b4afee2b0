"""Checks of the benchmark's reference against values fixed independently of
cbdsys.  run.py calls run_all() during set-up and refuses to measure if any
check fails; ``python3 bench/selftest.py`` runs them alone.
"""

from __future__ import annotations

import itertools
import sys

import numpy as np

import reference as ref


def _cycle_spec(product_expectations, marginals) -> list[ref.Context]:
    """Rank-n cycle c_i = (q_i, q_{i+1}) from moments, like a Bell system."""
    n = len(product_expectations)
    return [
        ref.Context(
            f"c{i + 1}",
            (f"q{i + 1}", f"q{(i + 1) % n + 1}"),
            ref.probs_from_moments(marginals[2 * i], marginals[2 * i + 1], product_expectations[i]),
        )
        for i in range(n)
    ]


def check_pr_box() -> None:
    spec = _cycle_spec((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
    v = ref.verdict(spec, ref.MAX_EQUALITY)
    assert abs(v.lhs - 4.0) <= 1e-12 and abs(v.rhs - 2.0) <= 1e-12, v
    assert not v.noncontextual
    assert not ref.verdict(spec, ref.EQUAL_ALWAYS).noncontextual


def check_worked_double_slit() -> None:
    """The paper's point p = q = 0.1, p' = q' = 0.08, r' = 0.05: lhs 1.92 <= rhs 2.12."""
    spec = ref.double_slit_spec(0.1, 0.1, 0.08, 0.08, 0.05)
    v = ref.verdict(spec, ref.MAX_EQUALITY)
    assert abs(v.lhs - 1.92) <= 1e-12 and abs(v.rhs - 2.12) <= 1e-12, v
    assert v.noncontextual


def check_classical_bound() -> None:
    """Deterministic +-1 assignments never exceed s_odd = n - 2; for n = 4
    this is the CHSH bound of exactly 2."""
    for n in range(2, 9):
        best = max(
            ref.s_odd([values[i] * values[(i + 1) % n] for i in range(n)])
            for values in itertools.product((-1.0, 1.0), repeat=n)
        )
        assert best == n - 2, (n, best)


def check_matched_products() -> None:
    """Equal product expectations in both orders (the QQ equality) make a
    rank-2 system noncontextual whatever its marginals."""
    rng = np.random.default_rng(12345)
    for _ in range(200):
        e = rng.uniform(-1.0, 1.0)
        agree = (1.0 + e) / 2.0
        spec = []
        for cid in ("AB", "BA"):
            u, v = rng.uniform(), rng.uniform()
            probs = [agree * (1 - u), (1 - agree) * v, (1 - agree) * (1 - v), agree * u]
            spec.append(ref.Context(cid, ("A", "B"), np.array(probs)))
        assert abs(ref.qq(spec)) <= 1e-12
        assert ref.verdict(spec, ref.MAX_EQUALITY).noncontextual


def check_witness_enumeration() -> None:
    """A bunch is its own coupling; moving mass or breaking a connection
    target is caught."""
    single = [ref.Context("c", ("a", "b"), np.array([0.1, 0.2, 0.3, 0.4]))]
    variables = [("a", "c"), ("b", "c")]
    assert ref.witness_defect(single, ref.MAX_EQUALITY, variables, [0.1, 0.2, 0.3, 0.4]) <= 1e-15
    assert ref.witness_defect(single, ref.MAX_EQUALITY, variables, [0.2, 0.1, 0.3, 0.4]) > 0.09
    # Two contexts sharing content a with Pr[a=+1] = 0.5 and 0.3: the maximal
    # coupling makes the two copies equal with probability 0.8.
    pair = [
        ref.Context("c1", ("a",), np.array([0.5, 0.5])),
        ref.Context("c2", ("a",), np.array([0.7, 0.3])),
    ]
    variables = [("a", "c1"), ("a", "c2")]
    assert ref.witness_defect(pair, ref.MAX_EQUALITY, variables, [0.5, 0.2, 0.0, 0.3]) <= 1e-15
    assert ref.witness_defect(pair, ref.MAX_EQUALITY, variables, [0.35, 0.35, 0.15, 0.15]) > 0.29
    assert ref.verdict(pair, ref.MAX_EQUALITY).noncontextual
    assert not ref.verdict(pair, ref.EQUAL_ALWAYS).noncontextual


CHECKS = (
    check_pr_box,
    check_worked_double_slit,
    check_classical_bound,
    check_matched_products,
    check_witness_enumeration,
)


def run_all() -> None:
    for check in CHECKS:
        check()


if __name__ == "__main__":
    failed = 0
    for check in CHECKS:
        try:
            check()
            print(f"{check.__name__}: PASS")
        except AssertionError as exc:
            failed += 1
            print(f"{check.__name__}: FAIL {exc}")
    sys.exit(1 if failed else 0)
