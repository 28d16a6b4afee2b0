"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The randomized suites are seeded, so the corpus is fixed and the verdict
equivalences they certify (closed-form criteria vs. LP feasibility vs. the
simplex oracle) either hold on every run or fail on every run.
"""

import time
from contextlib import contextmanager

import numpy as np

from cbdsys import (
    CouplingConstraint,
    DoubleSlitParams,
    build_bell,
    build_double_slit,
    cbd_cyclic2,
    cbd_cyclic4,
    check_double_slit,
    chsh_fine,
    connections,
    decide,
    detect_cyclic,
    max_equality_probability,
    qq_statistic,
    sample_double_slit_params,
)
from golden_cases import CASES, EXPECTED_DIR, run_case
from helpers import (
    brute_force_decide,
    marginalize_joint,
    max_deterministic_cyclic_lhs,
    max_equality_by_basis_enumeration,
    pair_equal_probability,
    random_rank2,
    random_rank2_matched_products,
    random_rank4_consistent,
    random_rank4_general,
    random_small_system,
)

EA = CouplingConstraint.EQUAL_ALWAYS
ME = CouplingConstraint.MAX_EQUALITY


@contextmanager
def criterion(name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{name}: FAIL")
        raise
    print(f"{name}: PASS ({time.perf_counter() - started:.1f}s)")


def test_c1_double_slit_universal_noncontextuality():
    with criterion("acceptance 1 (double-slit universally noncontextual)"):
        rng = np.random.default_rng(42)
        started = time.perf_counter()
        disagreements = contextual = 0
        for _ in range(10_000):
            params = sample_double_slit_params(rng)
            closed = check_double_slit(params)
            verdict = decide(build_double_slit(params), ME)
            if closed.noncontextual != verdict.feasible:
                disagreements += 1
            if not closed.noncontextual:
                contextual += 1
        elapsed = time.perf_counter() - started
        assert contextual == 0, f"{contextual} draws came out contextual"
        assert disagreements == 0, f"{disagreements} closed-form/LP disagreements"
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"


def test_c2_qq_equality_implies_noncontextual():
    with criterion("acceptance 2 (QQ equality implies noncontextual)"):
        rng = np.random.default_rng(2025)
        started = time.perf_counter()
        for _ in range(1_000):
            system = random_rank2_matched_products(rng)
            layout = detect_cyclic(system)
            assert abs(qq_statistic(system, layout)) <= 1e-12
            assert cbd_cyclic2(system, layout).noncontextual
            assert decide(system, ME).feasible
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_c3_chsh_fine_equivalent_to_equal_always_lp():
    with criterion("acceptance 3 (CHSH/Fine == equal-always LP, rank 4)"):
        rng = np.random.default_rng(3)
        started = time.perf_counter()
        disagreements = contextual = 0
        risky = np.inf
        for _ in range(10_000):
            system = random_rank4_consistent(rng)
            layout = detect_cyclic(system)
            result = chsh_fine(system, layout)
            verdict = decide(system, EA)
            if result.noncontextual != verdict.feasible:
                disagreements += 1
            if not result.noncontextual:
                contextual += 1
                risky = min(risky, result.lhs - result.rhs)
        elapsed = time.perf_counter() - started
        assert disagreements == 0, f"{disagreements} disagreements"
        # Both verdicts must be exercised, and no contextual draw may sit so
        # close to the fence that the criterion and LP tolerance semantics
        # could legitimately part ways.
        assert contextual > 0
        assert risky > 1e-5, f"contextual draw within {risky:g} of the boundary"
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5min"


def test_c4_cyclic4_equivalent_to_max_equality_lp():
    with criterion("acceptance 4 (rank-4 criterion == max-equality LP)"):
        rng = np.random.default_rng(4)
        started = time.perf_counter()
        disagreements = contextual = 0
        risky = np.inf
        for _ in range(10_000):
            system = random_rank4_general(rng)
            layout = detect_cyclic(system)
            result = cbd_cyclic4(system, layout)
            verdict = decide(system, ME)
            if result.noncontextual != verdict.feasible:
                disagreements += 1
            if not result.noncontextual:
                contextual += 1
                risky = min(risky, result.lhs - result.rhs)
        elapsed = time.perf_counter() - started
        assert disagreements == 0, f"{disagreements} disagreements"
        assert contextual > 0
        assert risky > 1e-5, f"contextual draw within {risky:g} of the boundary"
        assert elapsed < 300.0, f"took {elapsed:.1f}s, budget 5min"


def test_c5_pr_box_contextual_by_all_methods():
    with criterion("acceptance 5 (PR box contextual by all three methods)"):
        # Independent bound: no deterministic +1/-1 quadruple exceeds 2, so
        # no mixture of them can either.
        assert max_deterministic_cyclic_lhs(4) == 2.0
        system = build_bell((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
        layout = detect_cyclic(system)
        classical = chsh_fine(system, layout)
        general = cbd_cyclic4(system, layout)
        assert abs(classical.lhs - 4.0) <= 1e-12
        assert abs(general.lhs - 4.0) <= 1e-12
        assert not classical.noncontextual
        assert not general.noncontextual
        for constraint in (EA, ME):
            assert not decide(system, constraint).feasible


def test_c6_worked_double_slit_point_with_validated_witness():
    with criterion("acceptance 6 (worked double-slit point, witness valid)"):
        params = DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05)
        closed = check_double_slit(params)
        assert abs(closed.lhs - 1.92) <= 1e-12
        assert abs(closed.rhs - 2.12) <= 1e-12
        assert closed.noncontextual

        system = build_double_slit(params)
        via_system = cbd_cyclic4(system, detect_cyclic(system))
        assert abs(via_system.lhs - 1.92) <= 1e-12
        assert abs(via_system.rhs - 2.12) <= 1e-12

        verdict = decide(system, ME)
        assert verdict.feasible
        witness = verdict.witness
        variables = list(witness.variables)
        # Marginal reproduction, checked by direct enumeration.
        for ctx in system.contexts:
            positions = [variables.index((q, ctx.id)) for q in ctx.contents]
            got = marginalize_joint(witness.probs, positions, len(variables))
            expected = system.bunch(ctx.id).probs
            assert max(abs(g - e) for g, e in zip(got, expected)) <= 1e-7
        # All four connection equality targets attained.
        checked = 0
        for conn in connections(system):
            (ctx_a, ma), (ctx_b, mb) = conn.members
            u = variables.index((conn.content, ctx_a))
            v = variables.index((conn.content, ctx_b))
            target = max_equality_probability(ma, mb)
            assert abs(pair_equal_probability(witness.probs, u, v) - target) <= 1e-7
            checked += 1
        assert checked == 4


def test_c7_max_equality_formula_on_grid():
    with criterion("acceptance 7 (maximal-equality formula vs brute force)"):
        started = time.perf_counter()
        grid = [i / 100.0 for i in range(101)]
        worst = 0.0
        for a in grid:
            for b in grid:
                formula = max_equality_probability(a, b)
                oracle = max_equality_by_basis_enumeration(a, b)
                worst = max(worst, abs(formula - oracle))
        elapsed = time.perf_counter() - started
        assert worst <= 1e-9, f"worst grid deviation {worst:g}"
        assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"


def test_c8_decide_equals_brute_force_oracle():
    with criterion("acceptance 8 (LP decider == simplex oracle, m <= 8)"):
        rng = np.random.default_rng(8)
        disagreements = 0
        feasible = infeasible = 0
        for _ in range(2_000):
            system = random_small_system(rng, max_vars=8)
            for constraint in (EA, ME):
                main = decide(system, constraint)
                oracle = brute_force_decide(system, constraint)
                if main.feasible != oracle.feasible:
                    disagreements += 1
                feasible += main.feasible
                infeasible += not main.feasible
        assert disagreements == 0, f"{disagreements} disagreements"
        assert feasible > 0 and infeasible > 0  # both verdicts exercised


def test_c9_cli_golden_corpus():
    with criterion("acceptance 9 (CLI golden corpus and exit codes)"):
        golden_count = 0
        for case in CASES:
            exit_code, stdout, stderr = run_case(case)
            assert exit_code == case.exit_code, f"{case.name}: stderr {stderr}"
            if case.golden is not None:
                expected = (EXPECTED_DIR / case.golden).read_text(encoding="utf-8")
                assert stdout == expected, f"{case.name}: report drifted"
                golden_count += 1
            if case.stderr_contains is not None:
                assert case.stderr_contains in stderr, case.name
        assert golden_count >= 12


def test_supplementary_rank2_closed_form_equivalence():
    # Companion to acceptance 3/4 at the same scale, for rank-2 systems.
    with criterion("supplementary (rank-2 criterion == max-equality LP)"):
        rng = np.random.default_rng(22)
        disagreements = contextual = 0
        for i in range(10_000):
            system = random_rank2(rng, alpha=0.4 if i % 2 else 1.0)
            layout = detect_cyclic(system)
            result = cbd_cyclic2(system, layout)
            verdict = decide(system, ME)
            if result.noncontextual != verdict.feasible:
                disagreements += 1
            contextual += not result.noncontextual
        assert disagreements == 0, f"{disagreements} disagreements"
        assert contextual > 0
