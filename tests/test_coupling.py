"""coupling-engine: LP feasibility, witnesses, and the simplex oracle."""

import gc
import itertools
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbdsys import (
    EPS_FEAS,
    ConnectionSizeError,
    CouplingConstraint,
    DoubleSlitParams,
    SolverError,
    SystemSizeError,
    build_bell,
    build_double_slit,
    build_feasibility_problem,
    build_system,
    cbd_cyclic2,
    cbd_cyclic4,
    connections,
    consistency,
    coupling_variables,
    cyclic_criterion,
    decide,
    detect_cyclic,
    max_equality_probability,
    witness_violation,
)
from cbdsys import coupling
from cbdsys.coupling import SHAPE_CACHE_SIZE, FeasibilityProblem, _shape
from helpers import (
    brute_force_decide,
    build_joint_problem,
    clique_check_numpy,
    clique_tables,
    clique_tree_by_rescanning,
    cycle_from_moments,
    cyclic_criterion_margin,
    flip_content,
    glue_numpy,
    marginalize_joint,
    max_equality_by_basis_enumeration,
    pair_equal_probability,
    permute_declarations,
    random_chain,
    random_cycle,
    random_rank2,
    random_rank4_general,
    random_small_system,
    separator_entries,
    solve_cnt1_cold,
    solve_cnt1_fresh,
    uniform_cnt1_rhs,
)

EA = CouplingConstraint.EQUAL_ALWAYS
ME = CouplingConstraint.MAX_EQUALITY


def assert_witness_reproduces(system, constraint, witness):
    """Enumerate the witness margins directly instead of trusting the
    engine's own validator."""
    probs = np.asarray(witness.probs)
    variables = list(witness.variables)
    m = len(variables)
    assert probs.min() >= -1e-7
    for ctx in system.contexts:
        positions = [variables.index((q, ctx.id)) for q in ctx.contents]
        got = marginalize_joint(probs, positions, m)
        assert np.allclose(got, system.bunch(ctx.id).probs, atol=1e-7)
    for conn in connections(system):
        if len(conn.members) != 2:
            continue
        (ctx_a, ma), (ctx_b, mb) = conn.members
        u = variables.index((conn.content, ctx_a))
        v = variables.index((conn.content, ctx_b))
        target = constraint.target(ma, mb)
        assert pair_equal_probability(probs, u, v) == pytest.approx(target, abs=1e-7)


class TestMaxEqualityProbability:
    @pytest.mark.parametrize(
        "a,b,expected",
        [(0.7, 0.7, 1.0), (1.0, 0.0, 0.0), (0.6, 0.4, 0.8), (0.0, 0.0, 1.0)],
    )
    def test_known_values(self, a, b, expected):
        assert max_equality_probability(a, b) == pytest.approx(expected, abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            max_equality_probability(-0.1, 0.5)
        with pytest.raises(ValueError):
            max_equality_probability(0.5, 1.5)

    @given(
        a=st.floats(0.0, 1.0, allow_nan=False),
        b=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_basis_enumeration_oracle(self, a, b):
        assert max_equality_probability(a, b) == pytest.approx(
            max_equality_by_basis_enumeration(a, b), abs=1e-9
        )

    @given(
        a=st.floats(0.0, 1.0, allow_nan=False),
        b=st.floats(0.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_bounded(self, a, b):
        value = max_equality_probability(a, b)
        assert 0.0 <= value <= 1.0
        assert value == max_equality_probability(b, a)
        assert value == pytest.approx(1.0 - abs(a - b), abs=1e-15)


class TestBuildFeasibilityProblem:
    def test_rank4_dimensions(self):
        system = build_bell((0.0, 0.0, 0.0, 0.0), [0.0] * 8)
        problem = build_joint_problem(system, ME)
        assert len(problem.variables) == 8
        assert problem.matrix.shape == (4 * 4 + 4 + 1, 256)
        assert problem.row_labels[-1] == "mass"

    def test_rank2_dimensions(self):
        system = build_system(
            ["A", "B"],
            [("AB", ["A", "B"], [0.25] * 4), ("BA", ["A", "B"], [0.25] * 4)],
        )
        problem = build_joint_problem(system, ME)
        assert len(problem.variables) == 4
        assert problem.matrix.shape == (2 * 4 + 2 + 1, 16)

    def test_variable_order_is_context_major(self):
        system = build_bell((0.0, 0.0, 0.0, 0.0), [0.0] * 8)
        assert coupling_variables(system)[:4] == (
            ("q1", "c1"), ("q2", "c1"), ("q2", "c2"), ("q3", "c2"),
        )

    def test_connection_of_size_three_rejected(self):
        tables = [
            ("c1", ["q1", "q2"], [0.25] * 4),
            ("c2", ["q1", "q3"], [0.25] * 4),
            ("c3", ["q1", "q4"], [0.25] * 4),
        ]
        system = build_system(["q1", "q2", "q3", "q4"], tables)
        with pytest.raises(ConnectionSizeError):
            build_feasibility_problem(system, ME)

    def test_oversized_system_rejected(self):
        tables = [
            (f"c{i}", [f"q{i}", f"q{i + 1}"], [0.25] * 4) for i in range(11)
        ]
        system = build_system([f"q{i}" for i in range(12)], tables)
        with pytest.raises(SystemSizeError):
            build_feasibility_problem(system, ME)

    def test_equal_always_targets_are_one(self):
        system = build_bell((0.0, 0.0, 0.0, 0.0), [0.0] * 8)
        problem = build_feasibility_problem(system, EA)
        equal_rows = [i for i, lab in enumerate(problem.row_labels) if lab.startswith("equal")]
        assert len(equal_rows) == 4
        assert all(problem.rhs[i] == 1.0 for i in equal_rows)


class TestDecide:
    def test_single_context_trivially_feasible(self):
        probs = [0.1, 0.2, 0.3, 0.4]
        system = build_system(["a", "b"], [("c", ["a", "b"], probs)])
        verdict = decide(system, ME)
        assert verdict.feasible
        assert np.allclose(verdict.witness.probs, probs, atol=1e-9)

    def test_qq_equality_system_feasible(self):
        system = build_system(
            ["A", "B"],
            [("AB", ["A", "B"], [0.125, 0.25, 0.125, 0.5]),
             ("BA", ["A", "B"], [0.5, 0.125, 0.25, 0.125])],
        )
        assert decide(system, ME).feasible

    def test_double_slit_feasible_with_valid_witness(self):
        params = DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05)
        system = build_double_slit(params)
        verdict = decide(system, ME)
        assert verdict.feasible
        assert verdict.max_constraint_violation <= 1e-7
        assert witness_violation(system, ME, verdict.witness) <= 1e-7

    def test_pr_box_infeasible_both_constraints(self):
        system = build_bell((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
        for constraint in (EA, ME):
            verdict = decide(system, constraint)
            assert not verdict.feasible
            assert verdict.witness is None
            assert verdict.max_constraint_violation > 1e-7

    def test_witness_reproduces_bunches_and_targets(self, rng):
        for _ in range(20):
            system = random_small_system(rng)
            verdict = decide(system, ME)
            if verdict.feasible:
                assert_witness_reproduces(system, ME, verdict.witness)

    def test_boundary_slice_never_raises(self):
        # Rank-4 systems just past the criterion boundary, where the LP's
        # residual is near EPS_FEAS: every call returns a verdict, and every
        # feasible witness holds up.
        for g in np.logspace(-8, -4, 200):
            x = (2.0 + g) / 4.0
            system = build_bell((x, x, x, -x), [0.0] * 8)
            verdict = decide(system, ME)
            if verdict.feasible:
                assert witness_violation(system, ME, verdict.witness) <= EPS_FEAS

    def test_boundary_slice_matches_criterion(self):
        # The degree is in the criterion's expectation units, so both routes
        # put the fence at g = EPS_FEAS.
        for g in np.logspace(-8, -4, 200):
            x = (2.0 + g) / 4.0
            system = build_bell((x, x, x, -x), [0.0] * 8)
            closed = cbd_cyclic4(system, detect_cyclic(system))
            assert decide(system, ME).feasible == (g <= EPS_FEAS) == closed.noncontextual

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_degree_is_the_cyclic_criterion_excess(self, n, rng):
        # random_cycle draws are nearly all contextual; mixing every bunch
        # with the uniform table scales all expectations by lam and brings
        # the draws across the criterion boundary.
        sides = set()
        for _ in range(25):
            for constraint, consistent in ((ME, False), (ME, True), (EA, True)):
                drawn = random_cycle(rng, n, consistent)
                for lam in (1.0, rng.uniform(0.0, 1.0)):
                    system = _mixed_with_uniform(drawn, lam)
                    margin = cyclic_criterion_margin(system, constraint)
                    closed = cyclic_criterion(system, detect_cyclic(system), constraint)
                    assert closed.margin == pytest.approx(margin, abs=1e-12)
                    verdict = decide(system, constraint)
                    assert verdict.degree == pytest.approx(max(0.0, -margin), abs=1e-9)
                    assert verdict.feasible == (verdict.degree <= EPS_FEAS)
                    sides.add(verdict.feasible)
        assert sides == {True, False}

    def test_large_context_builds_no_dense_matrix(self):
        # One 11-content context is one clique of 2^11 columns; its dense
        # 2^11 x 2^11 matrix alone would take 34 MB.
        rng = np.random.default_rng(3)
        contents = [f"q{i}" for i in range(11)]
        system = build_system(
            contents, [("c", contents, list(rng.dirichlet([1.0] * (1 << 11))))]
        )
        decide(build_system(["a"], [("x", ["a"], [0.5, 0.5])]), ME)  # loads HiGHS
        _shape.cache_clear()
        tracemalloc.start()
        try:
            verdict = decide(system, ME)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.feasible
        assert peak < 20e6

    def test_feasible_verdict_never_builds_the_dense_joint(self):
        # A rank-10 cycle has m = 20 variables: its dense joint alone is
        # 8 MB of float64, its 2^20-long tuple far more.
        system = cycle_from_moments([(0.1, -0.1, 0.5)] * 10)
        decide(system, ME)  # loads HiGHS and builds the shape
        tracemalloc.start()
        try:
            verdict = decide(system, ME)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.feasible
        assert peak < 2e6
        assert "probs" not in vars(verdict.witness)
        assert len(verdict.witness.probs) == 1 << 20
        assert witness_violation(system, ME, verdict.witness) <= EPS_FEAS

    def test_clique_check_matches_enumeration(self, rng, monkeypatch):
        # The per-clique residual is the enumeration's residual on the glued
        # joint.  Point-mass and two-point tables leave child separator
        # entries without mass, where the conditional is uniform.
        solves = []
        solve = coupling._solve_cnt1

        def recorded(problem):
            solves.append((problem, solve(problem)))
            return solves[-1][1]

        monkeypatch.setattr(coupling, "_solve_cnt1", recorded)
        empty_separators = feasible = 0
        for _ in range(1000):
            system = _with_sparse_tables(random_small_system(rng, 12), rng)
            for constraint in (EA, ME):
                verdict = decide(system, constraint)
                if not verdict.feasible:
                    continue
                feasible += 1
                problem, solved = solves[-1]
                empty_separators += _empty_child_separator_entries(problem, solved.x)
                assert verdict.max_constraint_violation == pytest.approx(
                    witness_violation(system, constraint, verdict.witness), abs=1e-12
                )
                assert_witness_reproduces(system, constraint, verdict.witness)
        assert feasible > 500
        assert empty_separators > 0


def test_glue_keeps_mass_where_a_child_separator_is_empty(rng):
    # Clique tables that disagree on a separator: the child has no mass on
    # an entry where its parent has some.  The uniform conditional keeps
    # the joint's total mass, and the top-down clique marginals stay those
    # of the glued joint.
    system = random_chain(rng, 4)
    problem = build_feasibility_problem(system, ME)
    assert problem.tree
    tables = clique_tables(problem, rng.dirichlet(np.ones(len(problem.shape.lp_cost))))
    _, child = problem.tree[0]
    _, child_entry = separator_entries(problem)[0]
    tables[child][child_entry == 0] = 0.0
    x = np.concatenate(tables)
    x[: tables[0].size] /= tables[0].sum()
    witness, marginals = coupling._witness(problem, x)
    assert sum(witness.probs) == pytest.approx(1.0, abs=1e-12)
    m = problem.num_variables
    for clique, marginal in zip(
        problem.cliques, clique_tables(problem, marginals)
    ):
        assert marginalize_joint(witness.probs, list(clique), m) == pytest.approx(
            marginal.tolist(), abs=1e-12
        )


def test_glue_matches_numpy_bit_for_bit(rng, monkeypatch):
    # decide glues the witness in plain floats; helpers.glue_numpy does the
    # same steps as numpy array operations.  Tables, the dense joint and the
    # per-clique residual must agree to the bit, also where a child
    # separator entry has no mass.
    solves = []
    solve = coupling._solve_cnt1

    def recorded(problem):
        solves.append((problem, solve(problem)))
        return solves[-1][1]

    monkeypatch.setattr(coupling, "_solve_cnt1", recorded)
    systems = [random_small_system(rng, 12) for _ in range(150)]
    systems += [_with_sparse_tables(random_small_system(rng, 12), rng) for _ in range(150)]
    systems += [
        random_cycle(rng, n, consistent)
        for n in range(3, 11) for consistent in (False, True) for _ in range(3)
    ]
    feasible = empty_separators = 0
    for system in systems:
        for constraint in (EA, ME):
            verdict = decide(system, constraint)
            if not verdict.feasible:
                continue
            feasible += 1
            problem, solved = solves[-1]
            empty_separators += _empty_child_separator_entries(problem, solved.x)
            tables, marginals = glue_numpy(problem, solved.x)
            witness = verdict.witness
            assert [t.tobytes() for t in witness.tables] == [t.tobytes() for t in tables]
            oracle = coupling.CouplingWitness(witness.variables, witness.cliques, witness.tree, tables)
            assert witness.probs.tobytes() == oracle.probs.tobytes()
            assert verdict.max_constraint_violation.hex() == clique_check_numpy(problem, marginals).hex()
    assert feasible > 300
    assert empty_separators > 0


def _with_sparse_tables(system, rng):
    """Each bunch kept, or replaced by a point mass or a two-point table,
    with equal odds."""
    tables = []
    for ctx in system.contexts:
        probs = list(system.bunch(ctx.id).probs)
        kind = int(rng.integers(3))
        if kind:
            points = rng.choice(len(probs), size=kind, replace=False)
            u = rng.uniform()
            probs = [0.0] * len(probs)
            for point, weight in zip(points, (1.0,) if kind == 1 else (u, 1.0 - u)):
                probs[point] = weight
        tables.append((ctx.id, list(ctx.contents), probs))
    return build_system([c.id for c in system.contents], tables)


def _empty_child_separator_entries(problem, x):
    """How many separator entries of child cliques carry no mass in the
    clique tables x."""
    tables = clique_tables(problem, np.maximum(x, 0.0))
    count = 0
    for (_, child), (_, child_entry) in zip(problem.tree, separator_entries(problem)):
        count += int((np.bincount(child_entry, weights=tables[child]) == 0).sum())
    return count


def _mixed_with_uniform(system, lam):
    """Every bunch replaced by lam * bunch + (1 - lam) * uniform."""
    return build_system(
        [c.id for c in system.contents],
        [
            (ctx.id, list(ctx.contents),
             [lam * p + (1.0 - lam) / len(system.bunch(ctx.id).probs)
              for p in system.bunch(ctx.id).probs])
            for ctx in system.contexts
        ],
    )


def _tagged(system, tag):
    """The same shape with every content and context id suffixed by ``tag``."""
    return build_system(
        [f"{c.id}{tag}" for c in system.contents],
        [
            (f"{ctx.id}{tag}", [f"{q}{tag}" for q in ctx.contents],
             system.bunch(ctx.id).probs)
            for ctx in system.contexts
        ],
    )


class TestShapeCache:
    # Two noncontextual rank-4 systems of one shape, with different
    # probabilities and different content and context ids.
    A = build_bell((0.3, 0.2, 0.1, -0.1), [0.1, 0.0, 0.2, -0.1, 0.0, 0.1, -0.2, 0.1])
    B = _tagged(build_bell((-0.4, 0.5, 0.2, 0.3), [0.0] * 8), "'")

    def test_alternating_systems_keep_their_own_witness(self):
        cold = {}
        for name, system in (("A", self.A), ("B", self.B)):
            _shape.cache_clear()
            verdict = decide(system, ME)
            cold[name] = (verdict.max_constraint_violation, verdict.witness.probs)
        _shape.cache_clear()
        for name, system in (("A", self.A), ("B", self.B), ("A", self.A)):
            verdict = decide(system, ME)
            assert verdict.feasible
            assert verdict.witness.variables == coupling_variables(system)
            violation, probs = cold[name]
            assert verdict.max_constraint_violation == violation
            assert np.array_equal(verdict.witness.probs, probs)
            assert witness_violation(system, ME, verdict.witness) <= EPS_FEAS
        info = _shape.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_problem_carries_its_own_rhs_and_names(self):
        a = build_feasibility_problem(self.A, ME)
        b = build_feasibility_problem(self.B, ME)
        assert a.matrix is b.matrix
        for system, problem in ((self.A, a), (self.B, b)):
            joint = build_joint_problem(system, ME)
            k = problem.elastic_rows
            assert problem.variables == joint.variables
            assert problem.row_labels[:k] == joint.row_labels
            assert np.array_equal(problem.rhs[:k], joint.rhs)
            assert not problem.rhs[k:].any()
        assert a.row_labels[a.elastic_rows:] == b.row_labels[b.elastic_rows:]

    def test_shared_matrix_is_read_only(self):
        problem = build_feasibility_problem(self.A, ME)
        assert problem.matrix.flags.writeable is False
        with pytest.raises(ValueError):
            problem.matrix[0, 0] = 2.0

    def test_cache_is_bounded(self, rng):
        assert _shape.cache_info().maxsize == SHAPE_CACHE_SIZE > 0
        _shape.cache_clear()
        while _shape.cache_info().misses <= SHAPE_CACHE_SIZE:
            build_feasibility_problem(random_small_system(rng, 12), ME)
        assert _shape.cache_info().currsize == SHAPE_CACHE_SIZE


def test_highs_bindings_are_present():
    # decide calls these private scipy bindings directly, loaded from
    # scipy/optimize/_highspy/_core*; pyproject.toml pins a scipy that
    # ships them there.
    highspy = coupling._highspy()
    assert highspy.__name__ == "scipy.optimize._highspy._core"
    assert highspy.HighsLp().num_col_ == 0
    status = highspy.HighsModelStatus.kOptimal
    assert highspy._Highs().modelStatusToString(status) == "Optimal"


def test_highs_bindings_without_scipy_raise_solver_error(monkeypatch):
    # A None entry in sys.modules is how Python marks a module as absent.
    monkeypatch.delitem(sys.modules, coupling._HIGHSPY, raising=False)
    monkeypatch.setitem(sys.modules, "scipy", None)
    with pytest.raises(SolverError, match=(
        r"^HiGHS bindings not found: scipy is not installed;"
        r" cbdsys needs scipy>=1\.17$"
    )):
        coupling._highspy()


def _solver_cases() -> list[tuple]:
    """1,032 seeded (system, constraint) pairs: 60 rank-2 and 60 rank-4
    systems, 300 random small systems of up to 12 variables and 96 cycles
    of rank 3 to 10 (m up to 20), each under both constraints."""
    rng = np.random.default_rng(1212)
    systems = [random_rank2(rng) for _ in range(60)]
    systems += [random_rank4_general(rng) for _ in range(60)]
    systems += [random_small_system(rng, 12) for _ in range(300)]
    systems += [
        random_cycle(rng, n, consistent)
        for n in range(3, 11) for consistent in (False, True) for _ in range(6)
    ]
    return [(system, constraint) for system in systems for constraint in (EA, ME)]


def _solve_bits(solve) -> tuple:
    return (solve.degree.hex(), solve.x.tobytes(), solve.status, solve.iterations)


def _verdict_bits(verdict) -> tuple:
    tables = verdict.witness.tables if verdict.feasible else ()
    return (
        verdict.feasible, verdict.degree.hex(), verdict.boundary,
        verdict.max_constraint_violation.hex(), tuple(t.tobytes() for t in tables),
    )


class TestSolverInstance:
    """Each thread solves on one HiGHS instance (coupling._solver), starting
    from its shape's start basis.  What it solved before must not show:
    every solve equals one on a new instance that finds the start basis
    again (helpers.solve_cnt1_fresh), bit for bit."""

    @pytest.fixture(scope="class")
    def cases(self):
        return _solver_cases()

    @pytest.fixture(scope="class")
    def problems(self, cases):
        return [build_feasibility_problem(*case) for case in cases]

    def test_one_instance_per_thread(self):
        assert coupling._solver() is coupling._solver()
        other = []
        thread = threading.Thread(target=lambda: other.append(coupling._solver()))
        thread.start()
        thread.join()
        assert other[0] is not coupling._solver()

    def test_any_order_matches_a_fresh_solver(self, problems):
        oracle = [_solve_bits(solve_cnt1_fresh(problem)) for problem in problems]
        order = np.random.default_rng(12).permutation(len(problems)).tolist()
        for i in order:
            assert _solve_bits(coupling._solve_cnt1(problems[i])) == oracle[i], i
        # Each shape's HighsLp is kept on this thread, and solving again
        # reuses it, with only its row bounds set anew.
        kept = {id(problem.shape): coupling._local.lps[problem.shape] for problem in problems}
        for i in order[::-1]:
            assert _solve_bits(coupling._solve_cnt1(problems[i])) == oracle[i], i
            shape = problems[i].shape
            assert coupling._local.lps[shape] is kept[id(shape)], i

    def test_failed_solve_leaves_the_instance_clean(self, problems):
        # Halving every bunch entry makes the bunch rows sum to 1/2 while
        # the mass row asks for 1, so the LP has no solution.
        problem = next(p for p in problems if len(p.cliques) > 1)
        rhs = problem.rhs.copy()
        rhs[:problem.shape.pair_rows.start] *= 0.5
        broken = FeasibilityProblem(problem.variables, problem.shape, rhs)
        for solve in (solve_cnt1_fresh, coupling._solve_cnt1):
            with pytest.raises(SolverError, match=r"^LP solver failed: HiGHS model status "):
                solve(broken)
        # The same shape's kept HighsLp held the broken row bounds last.
        assert _solve_bits(coupling._solve_cnt1(problem)) == _solve_bits(solve_cnt1_fresh(problem))
        for later in problems[:50]:
            assert _solve_bits(coupling._solve_cnt1(later)) == _solve_bits(solve_cnt1_fresh(later))

    def test_kept_lps_are_bounded_by_the_shape_cache(self, rng):
        # A thread keeps one HighsLp per live shape.  Past the shape
        # cache's bound, evicted shapes free theirs.
        systems = [random_chain(rng, n) for n in range(1, 11)]
        systems += [random_cycle(rng, n, consistent=False) for n in range(3, 11)]
        systems += [
            build_system([f"q{i}" for i in range(j)],
                         [(f"c{i}", [f"q{i}"], [0.5, 0.5]) for i in range(j)])
            for j in range(1, 21)
        ]
        systems += [random_small_system(rng, 12) for _ in range(10)]
        sizes = []

        def work():
            for system in systems:
                decide(system, ME)
            sizes.append(len(coupling._local.lps))
            gc.collect()
            sizes.append(len(coupling._local.lps))

        _shape.cache_clear()
        thread = threading.Thread(target=work)
        thread.start()
        thread.join()
        assert _shape.cache_info().misses >= 40
        assert 0 < sizes[1] <= sizes[0] <= SHAPE_CACHE_SIZE

    def test_start_basis_matches_a_cold_solve(self, cases, problems):
        # Started from the shape's start basis, the solve ends where the
        # solve from the slack basis (helpers.solve_cnt1_cold) ends: the
        # same status, verdict and boundary flag, the degree to 1e-12, and
        # every feasible witness passes the enumerating check.
        for i, ((system, constraint), problem) in enumerate(zip(cases, problems)):
            cold = solve_cnt1_cold(problem)
            assert coupling._solve_cnt1(problem).status == cold.status, i
            verdict = decide(system, constraint)
            assert abs(verdict.degree - cold.degree) <= 1e-12, i
            assert verdict.feasible == (cold.degree <= EPS_FEAS), i
            assert verdict.boundary == (
                verdict.feasible and cold.degree > coupling.TIGHT_TOL
            ), i
            if verdict.feasible:
                assert witness_violation(system, constraint, verdict.witness) <= EPS_FEAS, i

    def test_start_basis_depends_only_on_the_shape(self, rng):
        # Two systems of one shape share a start basis, and building the
        # shape again after the cache is cleared finds the same one.
        def basis_of(system):
            basis = build_feasibility_problem(system, ME).shape.start_basis
            return [s.name for s in basis.col_status], [s.name for s in basis.row_status]

        first, second = (random_cycle(rng, 4, consistent=False) for _ in range(2))
        assert first.bunches != second.bunches
        shape = build_feasibility_problem(first, ME).shape
        assert build_feasibility_problem(second, ME).shape is shape
        want = basis_of(first)
        assert basis_of(second) == want
        _shape.cache_clear()
        assert build_feasibility_problem(first, ME).shape is not shape
        assert basis_of(second) == want

    def test_failed_start_basis_solve_names_the_status(self, monkeypatch, rng):
        highspy = coupling._highspy()
        real = coupling._solver

        class Stalled:
            def __init__(self):
                self._highs = real()

            def __getattr__(self, name):
                return getattr(self._highs, name)

            def getModelStatus(self):
                return highspy.HighsModelStatus.kIterationLimit

        _shape.cache_clear()  # a new shape, whose start basis is not made yet
        problem = build_feasibility_problem(random_cycle(rng, 5, consistent=True), EA)
        monkeypatch.setattr(coupling, "_solver", Stalled)
        with pytest.raises(
            SolverError,
            match=r"^LP solver failed: HiGHS model status 'Iteration limit reached'$",
        ):
            problem.shape.start_basis
        monkeypatch.undo()
        assert _solve_bits(coupling._solve_cnt1(problem)) == _solve_bits(
            solve_cnt1_fresh(problem)
        )

    def test_threads_match_a_serial_run(self):
        # Four threads decide the same 258 cases, each in its own order.
        cases = _solver_cases()[::4]
        serial = [_verdict_bits(decide(*case)) for case in cases]
        results = [[None] * len(cases) for _ in range(4)]

        def work(k):
            for i in np.random.default_rng(k).permutation(len(cases)).tolist():
                results[k][i] = _verdict_bits(decide(*cases[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for k in range(4):
            assert results[k] == serial, k


class TestBruteForceDecide:
    def test_rejects_large_systems(self):
        tables = [(f"c{i}", [f"q{i}", f"q{i + 1}"], [0.25] * 4) for i in range(7)]
        system = build_system([f"q{i}" for i in range(8)], tables)
        with pytest.raises(SystemSizeError):
            brute_force_decide(system, ME)

    def test_agrees_with_decide_on_random_systems(self, rng):
        disagreements = 0
        for _ in range(250):
            system = random_small_system(rng)
            for constraint in (EA, ME):
                main = decide(system, constraint)
                oracle = brute_force_decide(system, constraint)
                if main.feasible != oracle.feasible:
                    disagreements += 1
        assert disagreements == 0

    def test_agrees_on_cyclic_examples(self):
        pr_box = build_bell((1.0, 1.0, 1.0, -1.0), [0.0] * 8)
        worked = build_double_slit(DoubleSlitParams(0.1, 0.1, 0.08, 0.08, 0.05))
        for system in (pr_box, worked):
            for constraint in (EA, ME):
                assert (
                    decide(system, constraint).feasible
                    == brute_force_decide(system, constraint).feasible
                )

    def test_agrees_at_its_size_limit(self, rng):
        # m up to 12, the largest tableau the oracle accepts, under both
        # constraints; the draws must include single contexts, three-content
        # contexts and systems whose contexts fall into unlinked groups.
        shapes = {"single context": 0, "three contents": 0, "disconnected": 0}
        for _ in range(200):
            system = random_small_system(rng, max_vars=12)
            shapes["single context"] += len(system.contexts) == 1
            shapes["three contents"] += any(len(c.contents) == 3 for c in system.contexts)
            shapes["disconnected"] += context_groups(system) > 1
            for constraint in (EA, ME):
                assert (
                    decide(system, constraint).feasible
                    == brute_force_decide(system, constraint).feasible
                )
        assert all(shapes.values()), shapes


def context_groups(system):
    """Number of groups of contexts linked by shared contents."""
    group = {ctx.id: ctx.id for ctx in system.contexts}

    def find(c):
        while group[c] != c:
            c = group[c]
        return c

    for a, b in itertools.combinations(system.contexts, 2):
        if set(a.contents) & set(b.contents):
            group[find(a.id)] = find(b.id)
    return len({find(c) for c in group})


class TestCliqueProblem:
    def test_columns_are_clique_tables(self, rng):
        for _ in range(100):
            system = random_small_system(rng, max_vars=12)
            problem = build_feasibility_problem(system, ME)
            m = problem.num_variables
            cols = sum(1 << len(c) for c in problem.cliques)
            assert problem.matrix.shape[1] == cols <= 1 << m
            assert len(problem.rhs) == len(problem.row_labels) == problem.matrix.shape[0]

    @pytest.mark.parametrize("constraint", [ME, EA], ids=["ME", "EA"])
    def test_cnt1_arrays_are_the_matrix_without_its_pair_rows(self, constraint, rng):
        # A shape builds its CNT1 arrays and its dense matrix apart: the
        # CNT1 LP is the problem with its pair rows deleted, and minus their
        # sum as its cost.
        for _ in range(100):
            problem = build_feasibility_problem(random_small_system(rng, 12), constraint)
            shape = problem.shape
            pairs = range(problem.matrix.shape[0])[shape.pair_rows]
            cnt1 = np.zeros((len(shape.uniform_rhs), len(shape.lp_cost)))
            for col in range(len(shape.lp_cost)):
                span = slice(shape.lp_start[col], shape.lp_start[col + 1])
                np.add.at(cnt1, (list(shape.lp_index[span]), col), shape.lp_value[span])
            assert shape.lp_start[-1] == len(shape.lp_index) == len(shape.lp_value)
            assert np.array_equal(cnt1, np.delete(problem.matrix, pairs, axis=0))
            assert list(shape.lp_cost) == list(-problem.matrix[shape.pair_rows].sum(axis=0))
            assert list(shape.uniform_rhs) == uniform_cnt1_rhs(problem)

    def test_cliques_form_a_clique_tree(self, rng):
        # Every context and connection pair sits inside one clique, and the
        # cliques holding any one variable form a connected part of the tree
        # (running intersection), which is what lets local tables glue.
        for _ in range(100):
            system = random_small_system(rng, max_vars=12)
            problem = build_feasibility_problem(system, EA)
            cliques = [set(c) for c in problem.cliques]
            pos = {var: j for j, var in enumerate(problem.variables)}
            for ctx in system.contexts:
                members = {pos[(q, ctx.id)] for q in ctx.contents}
                assert any(members <= c for c in cliques)
            for conn in connections(system):
                if len(conn.members) == 2:
                    pair = {pos[(conn.content, ctx)] for ctx, _ in conn.members}
                    assert any(pair <= c for c in cliques)
            assert len(problem.tree) == len(cliques) - 1
            for j in range(problem.num_variables):
                holders = {i for i, c in enumerate(cliques) if j in c}
                links = [e for e in problem.tree if set(e) <= holders]
                assert len(links) == len(holders) - 1

    def test_clique_tree_matches_rescanning_prim(self, rng):
        # The O(k**2) Prim breaks ties exactly as the rescanning one, so the
        # trees, and with them the LP rows and witnesses, are identical.
        for _ in range(300):
            problem = build_feasibility_problem(random_small_system(rng, 12), ME)
            assert list(problem.tree) == clique_tree_by_rescanning(list(problem.cliques))

    @pytest.mark.parametrize("n", [50, 100])
    def test_clique_tree_matches_rescanning_prim_on_long_cycles(self, n):
        # Rank-n cycle shapes past M_MAX: context i holds variables 2i and
        # 2i + 1, and variable 2i + 1 shares its content with 2i + 2.
        m = 2 * n
        edges = [(2 * i, 2 * i + 1) for i in range(n)]
        edges += [(2 * i + 1, (2 * i + 2) % m) for i in range(n)]
        cliques = coupling._triangulate(m, edges)
        assert len(cliques) == m - 2
        assert coupling._clique_tree(cliques) == clique_tree_by_rescanning(cliques)

    @pytest.mark.parametrize("n", [4, 10])
    def test_cycle_is_far_smaller_than_joint(self, n, rng):
        # A cycle of 2n variables triangulates into 2n - 2 triangles: 144
        # columns for a rank-10 cycle (m = 20) instead of 2^20.
        problem = build_feasibility_problem(random_cycle(rng, n, consistent=False), ME)
        assert problem.num_variables == 2 * n
        assert problem.matrix.shape[1] == 8 * (2 * n - 2) < 200


class TestLargeSystems:
    def test_chain_above_twelve_variables(self, rng):
        tables = [
            (f"c{i}", [f"q{i}", f"q{i + 1}"], list(rng.dirichlet([1.0] * 4)))
            for i in range(7)
        ]
        system = build_system([f"q{i}" for i in range(8)], tables)
        problem = build_joint_problem(system, ME)
        assert problem.matrix.shape == (7 * 4 + 6 + 1, 1 << 14)
        verdict = decide(system, ME)
        assert verdict.feasible  # tree-shaped systems always admit a coupling
        assert verdict.max_constraint_violation <= 1e-7

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("contextual", [True, False])
    @pytest.mark.parametrize(
        "constraint,consistent", [(ME, False), (EA, True)], ids=["ME", "EA"]
    )
    def test_cycle_matches_criterion(self, n, contextual, constraint, consistent, rng):
        # m = 2n = 18 and 20: draws with the wanted verdict, at least 1e-3
        # away from the criterion boundary.
        while True:
            system = random_cycle(rng, n, consistent)
            margin = cyclic_criterion_margin(system, constraint)
            if (margin < -1e-3) if contextual else (margin > 1e-3):
                break
        verdict = decide(system, constraint)
        assert verdict.feasible is not contextual
        if verdict.feasible:
            assert_witness_reproduces(system, constraint, verdict.witness)

    @pytest.mark.parametrize("n", [9, 10])
    def test_chain_always_has_a_maximal_coupling(self, n, rng):
        system = random_chain(rng, n)
        verdict = decide(system, ME)
        assert verdict.feasible
        assert_witness_reproduces(system, ME, verdict.witness)
        # Dirichlet tables are inconsistently connected: no pair can be
        # equal always.
        assert not consistency(system).consistently_connected
        assert not decide(system, EA).feasible

    def test_invalid_system_rejected_up_front(self):
        from cbdsys import ValidationError

        with pytest.raises(ValidationError):
            decide(build_system(["q"], [("c", ["q"], [0.6, 0.6])]), ME)


class TestPolytopeSymmetries:
    def test_verdict_invariant_under_declaration_permutations(self, rng):
        for _ in range(25):
            system = random_small_system(rng)
            base = decide(system, ME).feasible
            shuffled = permute_declarations(system, rng)
            assert decide(shuffled, ME).feasible == base

    def test_verdict_invariant_under_single_content_flip(self, rng):
        for _ in range(25):
            system = random_small_system(rng)
            content = str(rng.choice([c.id for c in system.contents]))
            flipped = flip_content(system, content)
            for constraint in (EA, ME):
                assert (
                    decide(flipped, constraint).feasible
                    == decide(system, constraint).feasible
                )


class TestConstraintRelations:
    def test_equal_always_feasible_implies_consistent(self, rng):
        found = 0
        for _ in range(150):
            system = random_small_system(rng)
            if decide(system, EA).feasible:
                found += 1
                assert consistency(system).consistently_connected
        assert found > 0  # the suite actually exercised the implication

    def test_constraints_coincide_on_consistent_systems(self, rng):
        from helpers import random_rank4_consistent

        for _ in range(60):
            system = random_rank4_consistent(rng)
            assert decide(system, EA).feasible == decide(system, ME).feasible

    def test_inconsistent_system_equal_always_infeasible(self):
        system = build_system(
            ["A", "B"],
            [("AB", ["A", "B"], [0.125, 0.25, 0.125, 0.5]),
             ("BA", ["A", "B"], [0.5, 0.125, 0.25, 0.125])],
        )
        assert not decide(system, EA).feasible


def test_rank2_closed_form_matches_lp(rng):
    mismatches = 0
    for i in range(1000):
        system = random_rank2(rng, alpha=0.4 if i % 2 else 1.0)
        layout = detect_cyclic(system)
        closed = cbd_cyclic2(system, layout)
        verdict = decide(system, ME)
        if closed.noncontextual != verdict.feasible:
            mismatches += 1
    assert mismatches == 0


def test_rank4_closed_form_matches_lp(rng):
    mismatches = 0
    for _ in range(500):
        system = random_rank4_general(rng)
        layout = detect_cyclic(system)
        closed = cbd_cyclic4(system, layout)
        verdict = decide(system, ME)
        if closed.noncontextual != verdict.feasible:
            mismatches += 1
    assert mismatches == 0
