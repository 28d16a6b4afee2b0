"""system-core: data model, validation, and the expectation/marginal algebra."""

import dataclasses
import math
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdsys import (
    Bunch,
    CbdError,
    ContentNotInContextError,
    Context,
    CouplingConstraint,
    System,
    ValidationError,
    build_system,
    connections,
    consistency,
    cyclic_criterion,
    decide,
    expectation,
    marginal,
    parse_system,
    product_expectation,
    qq_statistic,
    validate_system,
)
from golden_cases import INPUT_DIR
from helpers import (
    connections_by_scan,
    marginalize_joint,
    random_cycle,
    random_small_system,
)


def coin_system(probs):
    return build_system(["q"], [("c", ["q"], probs)])


def connection_bits(conns):
    return [(c.content, [(ctx, p.hex()) for ctx, p in c.members]) for c in conns]


def violations_of(build, *args):
    """The violations listed by the ValidationError that ``build(*args)`` raises."""
    with pytest.raises(ValidationError) as err:
        build(*args)
    return err.value.violations


class TestValidateSystem:
    def test_uniform_coin_is_valid(self):
        assert validate_system(coin_system([0.5, 0.5])) == []

    def test_bad_sum_reported(self):
        violations = violations_of(coin_system, [0.6, 0.6])
        assert len(violations) == 1
        assert "sums to" in violations[0]

    def test_negative_and_excess_entries_reported_before_sum(self):
        # [-0.1, 1.1] sums to 1 exactly; both range defects are still caught.
        violations = violations_of(coin_system, [-0.1, 1.1])
        assert len(violations) == 2
        assert "negative" in violations[0]
        assert "exceeds 1" in violations[1]

    @pytest.mark.parametrize(
        "probs", [[math.nan, 0.5], [math.inf, -math.inf], [math.nan, math.inf]]
    )
    def test_non_finite_entries_reported_instead_of_range_and_sum(self, probs):
        # NaN slips past every comparison and fsum(inf, -inf) raises; each
        # non-finite entry is named once and no range or sum message follows.
        violations = violations_of(coin_system, probs)
        assert violations == [
            f"bunch for context 'c' entry {i} is not a finite number ({v!r})"
            for i, v in enumerate(probs)
            if not math.isfinite(v)
        ]

    def test_huge_entries_reported_without_summing(self):
        # fsum overflows on 1e308 + 1e308; each out-of-range entry is named
        # and the sum is left unchecked.
        violations = violations_of(coin_system, [1e308, 1e308])
        assert violations == [
            f"bunch for context 'c' entry {i} exceeds 1 (1e+308)" for i in range(2)
        ]

    def test_dangling_content_reference(self):
        violations = violations_of(
            build_system, ["q"], [("c", ["q", "ghost"], [0.25] * 4)]
        )
        assert any("undeclared content 'ghost'" in v for v in violations)

    def test_duplicate_ids(self):
        # A context is its bunch, so a context declared twice is named once.
        base = coin_system([0.5, 0.5])
        violations = violations_of(System, base.contents * 2, base.bunches * 2)
        assert violations == ["duplicate content id 'q'", "duplicate context id 'c'"]

    def test_wrong_probs_length(self):
        violations = violations_of(build_system, ["a", "b"], [("c", ["a", "b"], [0.5, 0.5])])
        assert any("expected 4" in v for v in violations)

    def test_empty_system(self):
        violations = violations_of(build_system, ["q"], [])
        assert any("no contexts" in v for v in violations)

    @pytest.mark.parametrize("probs", [[0.5, 0.4, 0.4, 0.4], [math.nan, 0.5, 0.25, 0.25]],
                             ids=["sum_1.7", "nan"])
    def test_cyclic_system_with_a_bad_bunch_is_never_built(self, probs):
        # The closed form computes a verdict from any bunch, so only
        # building the system can refuse these.
        tables = [("AB", ["A", "B"], probs), ("BA", ["A", "B"], [0.25] * 4)]
        [violation] = violations_of(build_system, ["A", "B"], tables)
        assert violation.startswith("bunch for context 'AB'")

    def test_contexts_are_views_of_the_bunches(self):
        system = build_system(
            ["a", "b"], [("c2", ["b", "a"], [0.25] * 4), ("c1", ["a"], [0.5, 0.5])]
        )
        assert [field.name for field in dataclasses.fields(system)] == ["contents", "bunches"]
        assert system.contexts == (Context("c2", ("b", "a")), Context("c1", ("a",)))
        assert system.bunch("c1") is system.bunches[1]


class TestLoadCleaning:
    def test_float_dust_clamped_and_renormalized(self):
        bunch = Bunch("c", ("q",), (-1e-12, 1.0 + 1e-12))
        assert bunch.probs[0] == 0.0
        assert math.fsum(bunch.probs) == 1.0

    def test_sum_an_ulp_over_one_is_kept_with_marginals_at_most_one(self):
        # Renormalizing would move the last bits on every load, so the sum
        # stays over one; the content holding all the mass is still +1 with
        # probability 1, which the maximal-equality target requires.
        probs = (0.0, 0.8444218515250481, 0.0, 0.1555781484749521)
        assert math.fsum(probs) > 1.0
        system = build_system(
            ["a", "b"], [("c1", ["a", "b"], probs), ("c2", ["a", "b"], [0.25] * 4)]
        )
        bunch = system.bunches[0]
        assert bunch.probs == probs
        assert bunch.plus_probs[0] == marginal(bunch, "a") == 1.0
        me = CouplingConstraint.MAX_EQUALITY
        closed = cyclic_criterion(system, system.cyclic_layout, me)
        assert decide(system, me).feasible == closed.noncontextual

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_product_expectation_of_a_sum_an_ulp_over_one_is_within_one(self, sign):
        # All the mass on equal (or on unequal) values, summing an ulp over
        # one: the expected product is +1 (or -1), and so are the rank-2
        # criterion's lhs and the QQ statistic against a uniform bunch.
        mass = (0.8444218515250481, 0.1555781484749521)
        probs = (mass[0], 0.0, 0.0, mass[1]) if sign > 0 else (0.0, mass[0], mass[1], 0.0)
        assert math.fsum(probs) > 1.0
        system = build_system(
            ["a", "b"], [("c1", ["a", "b"], probs), ("c2", ["a", "b"], [0.25] * 4)]
        )
        assert product_expectation(system.bunches[0], "a", "b") == sign
        me = CouplingConstraint.MAX_EQUALITY
        assert cyclic_criterion(system, system.cyclic_layout, me).lhs == 1.0
        assert abs(qq_statistic(system, system.cyclic_layout)) == 1.0

    def test_real_defects_left_for_validation(self):
        bunch = Bunch("c", ("q",), (0.6, 0.6))
        assert bunch.probs == (0.6, 0.6)

    def test_negative_zero_normalized(self):
        bunch = Bunch("c", ("q",), (-0.0, 1.0))
        assert str(bunch.probs[0]) == "0.0"


class TestMarginalAlgebra:
    def test_marginal_by_direct_summation(self):
        bunch = Bunch("c", ("a", "b"), (0.1, 0.2, 0.3, 0.4))
        assert marginal(bunch, "a") == pytest.approx(0.6, abs=1e-15)
        assert marginal(bunch, "b") == pytest.approx(0.7, abs=1e-15)

    def test_deterministic_bunch(self):
        bunch = Bunch("c", ("a", "b"), (0.0, 0.0, 0.0, 1.0))
        assert marginal(bunch, "a") == 1.0
        assert expectation(bunch, "b") == 1.0

    def test_unknown_content_raises(self):
        bunch = Bunch("c", ("a",), (0.5, 0.5))
        with pytest.raises(ContentNotInContextError):
            marginal(bunch, "zz")

    def test_identical_contents_rejected(self):
        bunch = Bunch("c", ("a", "b"), (0.25,) * 4)
        with pytest.raises(ValueError):
            product_expectation(bunch, "a", "a")

    @pytest.mark.parametrize(
        "probs,expected",
        [((0.5, 0.0, 0.0, 0.5), 1.0), ((0.0, 0.5, 0.5, 0.0), -1.0)],
    )
    def test_product_expectation_extremes(self, probs, expected):
        bunch = Bunch("c", ("a", "b"), probs)
        assert product_expectation(bunch, "a", "b") == expected

    def test_expectation_from_marginal_arithmetic(self):
        # marginal 0.13 (the open-left slit under both slits open) -> -0.74
        bunch = Bunch("c", ("a", "b"), (0.82, 0.08, 0.05, 0.05))
        assert marginal(bunch, "a") == pytest.approx(0.13, abs=1e-15)
        assert expectation(bunch, "a") == pytest.approx(-0.74, abs=1e-15)


def normalized_probs(k):
    n = 1 << k
    return st.lists(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        min_size=n, max_size=n,
    ).filter(lambda v: sum(v) > 1e-6).map(lambda v: [x / math.fsum(v) for x in v])


@given(k=st.integers(1, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_expectation_identity(k, data):
    probs = data.draw(normalized_probs(k))
    contents = tuple(f"q{i}" for i in range(k))
    bunch = Bunch("c", contents, tuple(probs))
    for q in contents:
        assert expectation(bunch, q) == 2.0 * marginal(bunch, q) - 1.0


@given(k=st.integers(2, 4), data=st.data())
@settings(max_examples=150, deadline=None)
def test_product_expectation_symmetry(k, data):
    probs = data.draw(normalized_probs(k))
    contents = tuple(f"q{i}" for i in range(k))
    bunch = Bunch("c", contents, tuple(probs))
    a, b = contents[0], contents[-1]
    assert product_expectation(bunch, a, b) == product_expectation(bunch, b, a)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_independent_bunch_product_factorizes(data):
    a = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    b = data.draw(st.floats(0.0, 1.0, allow_nan=False))
    probs = tuple(
        (a if idx & 1 else 1.0 - a) * (b if idx & 2 else 1.0 - b)
        for idx in range(4)
    )
    bunch = Bunch("c", ("x", "y"), probs)
    product = product_expectation(bunch, "x", "y")
    factored = expectation(bunch, "x") * expectation(bunch, "y")
    assert product == pytest.approx(factored, abs=1e-12)


def test_marginalizing_any_subset_reproduces_marginals(rng):
    # Two-path check: collapse the bunch onto a subset by enumeration, then
    # read the content marginal off the collapsed table.
    for _ in range(25):
        k = int(rng.integers(1, 6))
        probs = rng.dirichlet([1.0] * (1 << k))
        contents = tuple(f"q{i}" for i in range(k))
        bunch = Bunch("c", contents, tuple(probs))
        subset = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False))
        collapsed = marginalize_joint(bunch.probs, list(subset), k)
        for j, pos in enumerate(subset):
            via_subset = sum(
                p for idx, p in enumerate(collapsed) if (idx >> j) & 1
            )
            assert via_subset == pytest.approx(marginal(bunch, contents[pos]), abs=1e-12)


class TestConnections:
    def test_rank4_system_has_four_two_member_connections(self):
        from cbdsys import DoubleSlitParams, build_double_slit

        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        conns = connections(system)
        assert len(conns) == 4
        assert all(len(c.members) == 2 for c in conns)

    def test_single_context_connections_are_trivial(self):
        system = build_system(["a", "b"], [("c", ["a", "b"], [0.25] * 4)])
        assert all(len(c.members) == 1 for c in connections(system))
        report = consistency(system)
        assert report.consistently_connected
        assert report.max_marginal_gap == 0.0

    def test_members_follow_context_declaration_order(self):
        system = build_system(
            ["a", "b"],
            [("c2", ["a", "b"], [0.25] * 4), ("c1", ["a", "b"], [0.25] * 4)],
        )
        assert [ctx for ctx, _ in connections(system)[0].members] == ["c2", "c1"]

    def test_matches_the_scan_of_every_bunch(self, rng):
        # The one-pass index lists the same members, in the same order, with
        # bit-identical marginals, as scanning every bunch per content.
        systems = [random_small_system(rng, 12) for _ in range(300)]
        systems += [random_cycle(rng, n, consistent=False) for n in (2, 3, 7, 800)]
        for system in systems:
            assert connection_bits(connections(system)) == connection_bits(
                connections_by_scan(system)
            )


class TestConsistency:
    def test_equal_marginals_consistent(self):
        system = build_system(
            ["a", "b"],
            [("c1", ["a", "b"], [0.2, 0.3, 0.1, 0.4]),
             ("c2", ["a", "b"], [0.1, 0.4, 0.2, 0.3])],
        )
        report = consistency(system)
        assert report.consistently_connected
        assert report.max_marginal_gap <= 1e-15

    def test_question_order_gap(self):
        # Pr[Yes to first question] 0.6 in one order, 0.4 in the other.
        system = build_system(
            ["a", "b"],
            [("AB", ["a", "b"], [0.2, 0.3, 0.2, 0.3]),
             ("BA", ["a", "b"], [0.3, 0.2, 0.3, 0.2])],
        )
        report = consistency(system)
        assert not report.consistently_connected
        assert report.max_marginal_gap == pytest.approx(0.2, abs=1e-12)

    def test_double_slit_gap_is_detection_shift(self):
        from cbdsys import DoubleSlitParams, build_double_slit

        system = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        assert consistency(system).max_marginal_gap == pytest.approx(0.03, abs=1e-12)


def _rebuilt(system: System) -> System:
    """A new System over the same contents and bunches, with no system views
    yet.  (Building new bunches would clean their probabilities again.)"""
    return System(system.contents, system.bunches)


def _golden_systems() -> list[System]:
    systems = []
    for path in sorted(INPUT_DIR.iterdir()):
        try:
            systems.append(parse_system(path))
        except CbdError:
            continue  # the malformed and invalid inputs
    return systems


def _views(system: System):
    return (
        [[p.hex() for p in b.plus_probs] for b in system.bunches],
        connection_bits(system.connections),
        system.cyclic_layout,
    )


class TestKeptViews:
    """A System's derived views, worked out on first use and kept."""

    def test_plus_probs_equal_marginal_bit_for_bit(self, rng):
        systems = [random_small_system(rng, 12) for _ in range(300)] + _golden_systems()
        assert len(systems) > 300 + 10
        for system in systems:
            for b in system.bunches:
                assert [p.hex() for p in b.plus_probs] == [
                    marginal(b, q).hex() for q in b.contents
                ]

    def test_layout_equals_the_one_found_on_a_rebuilt_copy(self, rng):
        systems = [random_small_system(rng, 12) for _ in range(200)] + _golden_systems()
        systems += [random_cycle(rng, n, consistent=bool(n % 2)) for n in range(2, 12)]
        cyclic = 0
        for system in systems:
            layout = system.cyclic_layout
            copy = _rebuilt(system)
            assert copy == system and copy is not system
            assert copy.cyclic_layout == layout
            cyclic += layout is not None
        assert cyclic >= 10

    def test_views_are_computed_once_and_shared(self, rng):
        system = random_cycle(rng, 5, consistent=False)
        assert connections(system) is system.connections is connections(system)
        assert system.cyclic_layout is system.cyclic_layout
        assert all(b.plus_probs is b.plus_probs for b in system.bunches)

    def test_four_threads_read_equal_views(self, rng):
        # A long cycle, so the first reads overlap while the views are built.
        for _ in range(5):
            system = random_cycle(rng, 400, consistent=False)
            barrier = threading.Barrier(4)
            seen = [None] * 4

            def read(i):
                barrier.wait()
                seen[i] = _views(system)

            threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            want = (
                [[marginal(b, q).hex() for q in b.contents] for b in system.bunches],
                connection_bits(connections_by_scan(system)),
                _rebuilt(system).cyclic_layout,
            )
            assert want[2] is not None
            assert all(views == want for views in seen)
