"""cyclic-criteria: layout detection and the closed-form criterion at every rank."""

import itertools

import pytest

from cbdsys import (
    CouplingConstraint,
    DoubleSlitParams,
    InconsistentSystemError,
    QuestionOrderParams,
    RankError,
    build_bell,
    build_double_slit,
    build_question_order,
    build_system,
    cbd_cyclic2,
    cbd_cyclic4,
    chsh_fine,
    consistency,
    cyclic_criterion,
    decide,
    detect_cyclic,
    product_expectation,
    qq_statistic,
)
from cbdsys.cyclic import _cycle_sides
from helpers import (
    cycle_from_moments,
    cycle_sides_by_scan,
    permute_declarations,
    random_cycle,
    random_rank2,
    random_rank2_matched_products,
    random_rank4_consistent,
    random_rank4_general,
    rename_ids,
)


def uniform_bell():
    return build_bell((0.0, 0.0, 0.0, 0.0), [0.0] * 8)


class TestDetectCyclic:
    def test_bell_matrix_is_rank4(self):
        layout = detect_cyclic(uniform_bell())
        assert layout is not None and layout.rank == 4
        # Canonical start at the least content id.
        assert layout.order[0][0] == "q1"
        assert layout.order[1][0] == "q2"

    def test_question_order_matrix_is_rank2(self):
        system = build_question_order(
            QuestionOrderParams.from_probs([0.25] * 4, [0.25] * 4)
        )
        layout = detect_cyclic(system)
        assert layout is not None and layout.rank == 2
        assert layout.cycle_contexts() == ("AB", "BA")

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_rank_cycle_detected(self, n):
        tables = [
            (f"c{i}", [f"q{i}", f"q{(i + 1) % n}"], [0.25] * 4) for i in range(n)
        ]
        layout = detect_cyclic(build_system([f"q{i}" for i in range(n)], tables))
        assert layout is not None and layout.rank == n
        assert layout.cycle_contexts() == tuple(f"c{i}" for i in range(n))

    def test_two_disjoint_cycles_rejected(self):
        tables = [
            ("c1", ["q1", "q2"], [0.25] * 4),
            ("c2", ["q1", "q2"], [0.25] * 4),
            ("c3", ["q3", "q4"], [0.25] * 4),
            ("c4", ["q3", "q4"], [0.25] * 4),
        ]
        assert detect_cyclic(build_system(["q1", "q2", "q3", "q4"], tables)) is None

    def test_non_pair_context_rejected(self):
        tables = [("c1", ["q1", "q2", "q3"], [0.125] * 8)]
        assert detect_cyclic(build_system(["q1", "q2", "q3"], tables)) is None

    def test_content_in_three_contexts_rejected(self):
        tables = [
            ("c1", ["q1", "q2"], [0.25] * 4),
            ("c2", ["q1", "q3"], [0.25] * 4),
            ("c3", ["q1", "q4"], [0.25] * 4),
            ("c4", ["q3", "q4"], [0.25] * 4),
        ]
        system = build_system(["q1", "q2", "q3", "q4"], tables)
        assert detect_cyclic(system) is None

    def test_layout_independent_of_declaration_order(self, rng):
        for _ in range(20):
            system = random_rank4_general(rng)
            layout = detect_cyclic(system)
            shuffled = permute_declarations(system, rng)
            assert detect_cyclic(shuffled) == layout


ME = CouplingConstraint.MAX_EQUALITY
EA = CouplingConstraint.EQUAL_ALWAYS


class TestCyclicCriterion:
    def test_leggett_garg_rank3_bound_is_one(self):
        # Products (0.75, 0.75, -0.75): s_odd = 2.25 against 3 - 2 = 1.
        system = cycle_from_moments([(0.0, 0.0, e) for e in (0.75, 0.75, -0.75)])
        for constraint in (ME, EA):
            result = cyclic_criterion(system, detect_cyclic(system), constraint)
            assert (result.lhs, result.rhs, result.margin) == (2.25, 1.0, -1.25)
            assert not result.noncontextual

    def test_kcbs_rank5_gaps_move_the_bound(self):
        # Five products -0.75: s_odd = 3.75 > 3, but four gaps of 0.25 lift
        # the max-equality bound to 4.
        means = [(0.125, -0.125)] * 3 + [(0.125, 0.0), (0.0, -0.125)]
        system = cycle_from_moments([(a, b, -0.75) for a, b in means])
        result = cyclic_criterion(system, detect_cyclic(system), ME)
        assert (result.lhs, result.rhs) == (3.75, 4.0)
        assert result.noncontextual and not result.boundary
        with pytest.raises(InconsistentSystemError, match="use --method lp"):
            cyclic_criterion(system, detect_cyclic(system), EA)

    def test_s_odd_is_the_largest_odd_signed_sum(self, rng):
        for n in (2, 3, 4, 5, 6):
            for _ in range(20):
                products = rng.uniform(-1.0, 1.0, n)
                system = cycle_from_moments([(0.0, 0.0, e) for e in products])
                layout = detect_cyclic(system)
                e = [product_expectation(system.bunch(c), *system.bunch(c).contents)
                     for c in layout.cycle_contexts()]
                s_odd = max(
                    sum(-v if s else v for v, s in zip(e, signs))
                    for signs in itertools.product((0, 1), repeat=n)
                    if sum(signs) % 2
                )
                result = cyclic_criterion(system, layout, ME)
                assert result.lhs == pytest.approx(s_odd, abs=1e-12)
                assert result.rhs == pytest.approx(n - 2, abs=1e-12)

    def test_sides_match_the_linear_bunch_lookups(self, rng):
        # Indexing the bunches once reads the same tables as System.bunch,
        # so products and gaps are bit-identical, up to rank 800.
        for n in (2, 3, 4, 9, 800):
            for consistent in (False, True):
                system = random_cycle(rng, n, consistent)
                layout = detect_cyclic(system)
                products, deltas = _cycle_sides(system, layout)
                want_products, want_deltas = cycle_sides_by_scan(system, layout)
                assert [e.hex() for e in products] == [e.hex() for e in want_products]
                assert list(deltas) == list(want_deltas)
                assert [d.hex() for d in deltas.values()] == [
                    d.hex() for d in want_deltas.values()
                ]

    def test_equal_always_rhs_is_exactly_n_minus_2(self):
        # Consistent up to float dust: the max-equality bound picks the dust
        # up, the equal-always bound leaves it out.
        system = cycle_from_moments([(0.3, 0.7, 0.2), (0.7, 0.3, 0.1)])
        layout = detect_cyclic(system)
        assert 0.0 < cyclic_criterion(system, layout, ME).rhs <= 1e-15
        assert cyclic_criterion(system, layout, EA).rhs == 0.0


class TestChshFine:
    def test_perfect_correlations_on_boundary(self):
        system = build_bell((1.0, 1.0, 1.0, 1.0), [0.0] * 8)
        result = chsh_fine(system, detect_cyclic(system))
        assert result.lhs == 2.0
        assert result.noncontextual and result.boundary

    def test_pr_box_violates(self):
        system = build_bell((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
        result = chsh_fine(system, detect_cyclic(system))
        assert result.lhs == 4.0
        assert not result.noncontextual

    def test_moderate_correlations_inside(self):
        system = build_bell((0.5, 0.5, 0.5, 0.5), [0.0] * 8)
        result = chsh_fine(system, detect_cyclic(system))
        assert result.lhs == pytest.approx(1.0, abs=1e-12)
        assert result.noncontextual and not result.boundary

    def test_refuses_inconsistent_input(self):
        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        with pytest.raises(InconsistentSystemError):
            chsh_fine(system, detect_cyclic(system))

    def test_wrong_rank(self):
        system = build_question_order(
            QuestionOrderParams.from_probs([0.25] * 4, [0.25] * 4)
        )
        with pytest.raises(RankError):
            chsh_fine(system, detect_cyclic(system))


class TestCbdCyclic4:
    def test_equals_chsh_fine_when_consistent(self, rng):
        for _ in range(200):
            system = random_rank4_consistent(rng)
            layout = detect_cyclic(system)
            general = cbd_cyclic4(system, layout)
            classical = chsh_fine(system, layout)
            assert general.noncontextual == classical.noncontextual
            assert general.lhs == pytest.approx(classical.lhs, abs=1e-12)
            assert general.rhs == pytest.approx(2.0, abs=1e-8)

    def test_identical_bunches_make_rhs_exactly_two(self):
        probs = [0.3, 0.25, 0.25, 0.2]
        tables = [
            (f"c{i + 1}", [f"q{i + 1}", f"q{(i + 1) % 4 + 1}"], probs)
            for i in range(4)
        ]
        system = build_system([f"q{i + 1}" for i in range(4)], tables)
        result = cbd_cyclic4(system, detect_cyclic(system))
        assert result.rhs == 2.0
        assert all(d == 0.0 for d in result.deltas.values())

    def test_double_slit_worked_point(self):
        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        result = cbd_cyclic4(system, detect_cyclic(system))
        assert result.lhs == pytest.approx(1.92, abs=1e-12)
        assert result.rhs == pytest.approx(2.12, abs=1e-12)
        assert result.noncontextual

    def test_pr_box_stays_contextual_with_zero_deltas(self):
        system = build_bell((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
        result = cbd_cyclic4(system, detect_cyclic(system))
        assert result.lhs == 4.0 and result.rhs == 2.0
        assert not result.noncontextual

    def test_deltas_bounded(self, rng):
        for _ in range(100):
            system = random_rank4_general(rng)
            result = cbd_cyclic4(system, detect_cyclic(system))
            assert all(0.0 <= d <= 2.0 for d in result.deltas.values())
            assert result.noncontextual == (result.lhs <= result.rhs + 1e-7)

    def test_lhs_invariant_under_relabeling_and_reversal(self, rng):
        for _ in range(40):
            system = random_rank4_general(rng)
            base = cbd_cyclic4(system, detect_cyclic(system))
            # Renaming ids changes the canonical start and direction but not
            # the criterion sides.
            content_map = {f"q{i + 1}": f"z{4 - i}" for i in range(4)}
            context_map = {f"c{i + 1}": f"k{4 - i}" for i in range(4)}
            renamed = rename_ids(system, content_map, context_map)
            other = cbd_cyclic4(renamed, detect_cyclic(renamed))
            assert other.lhs == pytest.approx(base.lhs, abs=1e-12)
            assert other.rhs == pytest.approx(base.rhs, abs=1e-12)


class TestCbdCyclic2:
    def test_identical_bunches_noncontextual(self):
        system = build_question_order(
            QuestionOrderParams.from_probs([0.1, 0.4, 0.2, 0.3], [0.1, 0.4, 0.2, 0.3])
        )
        result = cbd_cyclic2(system, detect_cyclic(system))
        assert result.lhs == 0.0 and result.rhs == 0.0
        assert result.noncontextual

    def test_matched_products_noncontextual_regardless_of_marginals(self, rng):
        for _ in range(200):
            system = random_rank2_matched_products(rng)
            layout = detect_cyclic(system)
            result = cbd_cyclic2(system, layout)
            assert abs(qq_statistic(system, layout)) <= 1e-12
            assert result.noncontextual

    def test_opposite_perfect_correlations_contextual(self):
        system = build_question_order(
            QuestionOrderParams.from_probs([0.5, 0, 0, 0.5], [0, 0.5, 0.5, 0])
        )
        result = cbd_cyclic2(system, detect_cyclic(system))
        assert result.lhs == 2.0 and result.rhs == 0.0
        assert not result.noncontextual

    def test_wrong_rank(self):
        system = uniform_bell()
        with pytest.raises(RankError):
            cbd_cyclic2(system, detect_cyclic(system))


class TestQqStatistic:
    def test_identical_bunches_give_zero(self):
        system = build_question_order(
            QuestionOrderParams.from_probs([0.25] * 4, [0.25] * 4)
        )
        assert qq_statistic(system, detect_cyclic(system)) == 0.0

    def test_signed_difference_of_products(self):
        # correlations 0.3 and 0.1 -> statistic 0.2 (canonical order AB, BA)
        ab = [0.325, 0.175, 0.175, 0.325]  # product expectation 0.3
        ba = [0.275, 0.225, 0.225, 0.275]  # product expectation 0.1
        system = build_question_order(QuestionOrderParams.from_probs(ab, ba))
        assert qq_statistic(system, detect_cyclic(system)) == pytest.approx(0.2, abs=1e-12)

    def test_qq_equality_without_consistent_connectedness(self):
        # Dyadic probabilities: both correlations exactly 0.25, marginals far apart.
        system = build_question_order(
            QuestionOrderParams.from_probs(
                [0.125, 0.25, 0.125, 0.5], [0.5, 0.125, 0.25, 0.125]
            )
        )
        layout = detect_cyclic(system)
        assert qq_statistic(system, layout) == 0.0
        assert not consistency(system).consistently_connected
        assert cbd_cyclic2(system, layout).noncontextual
        assert decide(system, CouplingConstraint.MAX_EQUALITY).feasible

    def test_zero_statistic_implies_noncontextual(self, rng):
        for _ in range(100):
            system = random_rank2_matched_products(rng)
            layout = detect_cyclic(system)
            if abs(qq_statistic(system, layout)) <= 1e-12:
                assert cbd_cyclic2(system, layout).noncontextual


def test_rank2_criterion_is_rank4_formula_specialized(rng):
    # max_j |e1 + e2 - 2 e_j| collapses to |e1 - e2|: the two criteria share
    # one shape, so spot-check the rank-2 left side against the direct form.
    for _ in range(50):
        system = random_rank2(rng)
        layout = detect_cyclic(system)
        result = cbd_cyclic2(system, layout)
        from cbdsys import product_expectation

        e = [
            product_expectation(system.bunch(cid), "A", "B")
            for cid in layout.cycle_contexts()
        ]
        assert result.lhs == pytest.approx(abs(e[0] - e[1]), abs=1e-15)
        assert result.lhs == pytest.approx(
            max(abs(e[0] + e[1] - 2 * v) for v in e), abs=1e-15
        )
