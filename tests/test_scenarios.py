"""scenarios: the double-slit, question-order, and Bell builders."""

import math

import numpy as np
import pytest

from cbdsys import (
    CouplingConstraint,
    DoubleSlitParams,
    MomentError,
    ParameterError,
    QuestionOrderParams,
    build_bell,
    build_double_slit,
    build_question_order,
    cbd_cyclic4,
    decide,
    detect_cyclic,
    expectation,
    marginal,
    product_expectation,
    qq_statistic,
    sample_double_slit_params,
    validate_system,
)
from cbdsys.scenarios import (
    CTX_CLOSED_CLOSED,
    CTX_CLOSED_OPEN,
    CTX_OPEN_CLOSED,
    CTX_OPEN_OPEN,
    LEFT_CLOSED,
    LEFT_OPEN,
    RIGHT_CLOSED,
)

WORKED = DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05)


class TestDoubleSlitParams:
    def test_worked_point_admissible(self):
        assert WORKED.p == 0.1 and WORKED.r_prime == 0.05

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(p=0.5, q=0.1, p_prime=0.0, q_prime=0.0, r_prime=0.0),
            dict(p=0.1, q=0.5, p_prime=0.0, q_prime=0.0, r_prime=0.0),
            dict(p=0.1, q=0.1, p_prime=0.25, q_prime=0.25, r_prime=0.0),
            dict(p=-0.1, q=0.1, p_prime=0.0, q_prime=0.0, r_prime=0.0),
            dict(p=0.1, q=0.1, p_prime=0.2, q_prime=0.2, r_prime=0.7),
        ],
    )
    def test_inadmissible_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            DoubleSlitParams(**kwargs)

    def test_smallness_is_strict(self):
        # Equality cases of the positivity requirements are not admissible.
        with pytest.raises(ParameterError):
            DoubleSlitParams(p=0.0, q=0.0, p_prime=0.25, q_prime=0.25, r_prime=0.0)

    def test_nan_named_as_not_finite(self):
        with pytest.raises(ParameterError, match="p = nan is not a finite number"):
            DoubleSlitParams(p=float("nan"), q=0.1, p_prime=0.08, q_prime=0.08,
                             r_prime=0.05)

    def test_sampler_yields_admissible_draws(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            params = sample_double_slit_params(rng)  # constructor validates
            assert 1.0 - 2.0 * params.p > 0.0

    def test_sampler_is_seed_deterministic(self):
        a = sample_double_slit_params(np.random.default_rng(5))
        b = sample_double_slit_params(np.random.default_rng(5))
        assert a == b


class TestBuildDoubleSlit:
    def test_valid_cyclic_rank4(self):
        system = build_double_slit(WORKED)
        assert validate_system(system) == []
        layout = detect_cyclic(system)
        assert layout is not None and layout.rank == 4

    def test_tables_match_parameters(self):
        system = build_double_slit(WORKED)
        open_closed = system.bunch(CTX_OPEN_CLOSED)
        assert open_closed.probs == (0.9, 0.1, 0.0, 0.0)
        closed_open = system.bunch(CTX_CLOSED_OPEN)
        assert closed_open.probs == (0.9, 0.0, 0.1, 0.0)
        both_closed = system.bunch(CTX_CLOSED_CLOSED)
        assert both_closed.probs == (1.0, 0.0, 0.0, 0.0)
        both_open = system.bunch(CTX_OPEN_OPEN)
        assert both_open.probs == pytest.approx((0.79, 0.08, 0.08, 0.05), abs=1e-15)

    def test_product_expectations(self):
        system = build_double_slit(WORKED)
        expected = {
            CTX_OPEN_CLOSED: 0.8,
            CTX_CLOSED_CLOSED: 1.0,
            CTX_CLOSED_OPEN: 0.8,
            CTX_OPEN_OPEN: 0.68,
        }
        for ctx in system.contexts:
            got = product_expectation(system.bunch(ctx.id), *ctx.contents)
            assert got == pytest.approx(expected[ctx.id], abs=1e-12)

    def test_open_left_marginal_is_r_plus_p_prime(self):
        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        assert marginal(system.bunch(CTX_OPEN_OPEN), LEFT_OPEN) == pytest.approx(
            0.13, abs=1e-15
        )

    def test_closed_slits_never_fire(self):
        system = build_double_slit(WORKED)
        for ctx in system.contexts:
            for q in (LEFT_CLOSED, RIGHT_CLOSED):
                if q in ctx.contents:
                    assert expectation(system.bunch(ctx.id), q) == -1.0

    def test_zero_detection_limit(self):
        system = build_double_slit(DoubleSlitParams(0.0, 0.0, 0.0, 0.0, 0.0))
        for bunch in system.bunches:
            assert bunch.probs[0] == 1.0  # all mass on (No, No)
        result = cbd_cyclic4(system, detect_cyclic(system))
        # All four product expectations are 1, so the left side sits exactly
        # on the classical bound.
        assert result.lhs == 2.0 and result.rhs == 2.0
        assert result.noncontextual and result.boundary


class TestCheckDoubleSlit:
    def test_worked_point_values(self):
        from cbdsys import check_double_slit

        result = check_double_slit(WORKED)
        assert result.lhs == pytest.approx(1.92, abs=1e-12)
        assert result.rhs == pytest.approx(2.12, abs=1e-12)
        assert result.noncontextual

    def test_matches_cyclic4_on_random_parameters(self, rng):
        from cbdsys import check_double_slit

        for _ in range(300):
            params = sample_double_slit_params(rng)
            closed = check_double_slit(params)
            system = build_double_slit(params)
            via_system = cbd_cyclic4(system, detect_cyclic(system))
            assert closed.lhs == pytest.approx(via_system.lhs, abs=1e-12)
            assert closed.rhs == pytest.approx(via_system.rhs, abs=1e-12)
            assert closed.noncontextual == via_system.noncontextual

    def test_always_noncontextual(self, rng):
        from cbdsys import check_double_slit

        for _ in range(1000):
            assert check_double_slit(sample_double_slit_params(rng)).noncontextual


class TestQuestionOrder:
    def test_identical_bunches(self):
        params = QuestionOrderParams.from_probs([0.1, 0.4, 0.2, 0.3], [0.1, 0.4, 0.2, 0.3])
        system = build_question_order(params)
        assert validate_system(system) == []
        layout = detect_cyclic(system)
        assert layout.rank == 2
        assert qq_statistic(system, layout) == 0.0

    def test_bad_params_rejected(self):
        with pytest.raises(ParameterError):
            QuestionOrderParams.from_probs([0.5, 0.5, 0.0, 0.0], [0.6, 0.6, 0.0, 0.0])
        with pytest.raises(ParameterError):
            QuestionOrderParams.from_probs([0.25] * 4, [0.25] * 4, contexts=("AB", "AB"))

    def test_nan_entry_rejected(self):
        # NaN makes the sum NaN, which no sum check catches.
        with pytest.raises(ParameterError, match="not a distribution"):
            QuestionOrderParams.from_probs([math.nan, 0.5, 0.25, 0.25], [0.25] * 4)

    def test_qq_holds_with_unequal_marginals(self):
        params = QuestionOrderParams.from_probs(
            [0.125, 0.25, 0.125, 0.5], [0.5, 0.125, 0.25, 0.125]
        )
        system = build_question_order(params)
        layout = detect_cyclic(system)
        assert qq_statistic(system, layout) == 0.0
        from cbdsys import consistency

        assert not consistency(system).consistently_connected
        assert decide(system, CouplingConstraint.MAX_EQUALITY).feasible

    def test_opposite_correlations_contextual(self):
        params = QuestionOrderParams.from_probs([0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0])
        system = build_question_order(params)
        assert not decide(system, CouplingConstraint.MAX_EQUALITY).feasible


class TestBuildBell:
    def test_pr_box(self):
        system = build_bell((1, 1, 1, -1), [0.0] * 8)
        assert validate_system(system) == []
        result = cbd_cyclic4(system, detect_cyclic(system))
        assert result.lhs == 4.0
        assert not decide(system, CouplingConstraint.MAX_EQUALITY).feasible

    def test_perfect_agreement_noncontextual(self):
        system = build_bell((1, 1, 1, 1), [0.0] * 8)
        assert decide(system, CouplingConstraint.MAX_EQUALITY).feasible

    def test_infeasible_moment_triple(self):
        with pytest.raises(MomentError):
            build_bell((1, 0, 0, 0), [1.0, -1.0] + [0.0] * 6)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ParameterError):
            build_bell((1, 1, 1), [0.0] * 8)
        with pytest.raises(ParameterError):
            build_bell((1, 1, 1, 2.0), [0.0] * 8)

    def test_moment_round_trip(self, rng):
        for _ in range(200):
            prods, margs = [], []
            for _ in range(4):
                e = rng.uniform(-1, 1)
                bound = (1.0 - abs(e)) / 2.0
                ea, eb = rng.uniform(-bound, bound, 2)
                prods.append(e)
                margs.extend([ea, eb])
            system = build_bell(prods, margs)
            for i, ctx in enumerate(system.contexts):
                bunch = system.bunch(ctx.id)
                a, b = ctx.contents
                assert expectation(bunch, a) == pytest.approx(margs[2 * i], abs=1e-12)
                assert expectation(bunch, b) == pytest.approx(margs[2 * i + 1], abs=1e-12)
                assert product_expectation(bunch, a, b) == pytest.approx(
                    prods[i], abs=1e-12
                )
