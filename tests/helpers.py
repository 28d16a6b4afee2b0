"""Shared test utilities: random system generators and independent oracles.

The generators are deliberately varied (boundary-pinned couplings, sparse
Dirichlet weights, moment-built near-extremal systems) so randomized
equivalence suites exercise both verdicts.  The oracles recompute quantities
by enumeration, independent of the library's code paths; the coupling oracle
(:func:`brute_force_decide`) works on all 2**m joint assignments with a
hand-rolled simplex, where the library solves a clique-tree LP with HiGHS.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from cbdsys import (
    EPS_FEAS,
    Bunch,
    Content,
    CouplingConstraint,
    CouplingWitness,
    FeasibilityVerdict,
    SolverError,
    System,
    SystemSizeError,
    build_system,
    connections,
    coupling_variables,
)
from cbdsys import coupling
from cbdsys.system import Connection, expectation, marginal, product_expectation

#: brute_force_decide builds dense 2**m tableaus; keep them small.
BRUTE_M_MAX = 12


def bunch_probs_from_moments(ea: float, eb: float, eab: float) -> list[float]:
    """2x2 table from means and correlation; assumes the triple is feasible."""
    probs = []
    for idx in range(4):
        x = 1.0 if idx & 1 else -1.0
        y = 1.0 if idx & 2 else -1.0
        probs.append((1.0 + x * ea + y * eb + x * y * eab) / 4.0)
    return probs


def random_rank4_consistent(rng: np.random.Generator) -> System:
    """Cyclic rank-4 system with equal marginals in both contexts of every
    content; an eighth of the couplings are pinned to a Frechet endpoint."""
    margs = rng.uniform(0.0, 1.0, 4)
    tables = []
    for i in range(4):
        a, b = margs[i], margs[(i + 1) % 4]
        lo, hi = max(0.0, a + b - 1.0), min(a, b)
        u = rng.uniform()
        if u < 0.125:
            t = lo
        elif u > 0.875:
            t = hi
        else:
            t = lo + (hi - lo) * rng.uniform()
        tables.append(
            (f"c{i + 1}", [f"q{i + 1}", f"q{(i + 1) % 4 + 1}"],
             [1.0 - a - b + t, a - t, b - t, t])
        )
    return build_system([f"q{i + 1}" for i in range(4)], tables)


def random_rank4_general(rng: np.random.Generator) -> System:
    """Generally inconsistent rank-4 system; half the draws are moment-built
    near an odd sign pattern, where contextual systems are common."""
    if rng.uniform() < 0.5:
        alpha = float(rng.choice([0.5, 1.0]))
        tables = [
            (f"c{i + 1}", [f"q{i + 1}", f"q{(i + 1) % 4 + 1}"],
             list(rng.dirichlet([alpha] * 4)))
            for i in range(4)
        ]
    else:
        signs = rng.choice([-1.0, 1.0], size=4)
        if float(np.prod(signs)) > 0:
            signs[rng.integers(4)] *= -1.0
        tables = []
        for i in range(4):
            e = float(signs[i]) * (1.0 - rng.uniform(0.0, 0.4))
            bound = (1.0 - abs(e)) / 2.0
            ea = rng.uniform(-bound, bound)
            eb = rng.uniform(-bound, bound)
            tables.append(
                (f"c{i + 1}", [f"q{i + 1}", f"q{(i + 1) % 4 + 1}"],
                 bunch_probs_from_moments(ea, eb, e))
            )
    return build_system([f"q{i + 1}" for i in range(4)], tables)


def random_rank2(rng: np.random.Generator, alpha: float = 1.0) -> System:
    tables = [
        ("AB", ["A", "B"], list(rng.dirichlet([alpha] * 4))),
        ("BA", ["A", "B"], list(rng.dirichlet([alpha] * 4))),
    ]
    return build_system(["A", "B"], tables)


def random_rank2_matched_products(rng: np.random.Generator) -> System:
    """Rank-2 system whose two contexts share the product expectation but not
    the marginals: the question-order situation where the QQ equality holds."""
    e = rng.uniform(-1.0, 1.0)
    agree = (1.0 + e) / 2.0
    tables = []
    for cid in ("AB", "BA"):
        u, v = rng.uniform(), rng.uniform()
        p_yy = agree * u
        p_nn = agree * (1.0 - u)
        p_yn = (1.0 - agree) * v
        p_ny = (1.0 - agree) * (1.0 - v)
        tables.append((cid, ["A", "B"], [p_nn, p_yn, p_ny, p_yy]))
    return build_system(["A", "B"], tables)


def random_small_system(rng: np.random.Generator, max_vars: int = 8) -> System:
    """Arbitrary-shape system with every content in at most two contexts and
    at most ``max_vars`` total variables."""
    pool = [f"q{i}" for i in range(1, 7)]
    usage = {q: 0 for q in pool}
    tables = []
    total = 0
    for j in range(int(rng.integers(1, 5))):
        available = [q for q in pool if usage[q] < 2]
        k = min(int(rng.integers(1, 4)), len(available), max_vars - total)
        if k == 0:
            break
        members = [str(q) for q in rng.choice(available, size=k, replace=False)]
        for q in members:
            usage[q] += 1
        total += k
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        tables.append((f"c{j + 1}", members, list(rng.dirichlet([alpha] * (1 << k)))))
    used = [q for q in pool if usage[q] > 0]
    return build_system(used, tables)


def random_cycle(rng: np.random.Generator, n: int, consistent: bool) -> System:
    """Rank-n cycle (context c_i holds q_i and q_{i+1 mod n}) built from
    moments: products near an odd sign pattern, where contextual systems are
    common, and means small enough for every table to exist.  With
    ``consistent`` each content keeps one mean in both its contexts."""
    signs = rng.choice([-1.0, 1.0], size=n)
    if float(np.prod(signs)) > 0:
        signs[rng.integers(n)] *= -1.0
    products = signs * (1.0 - rng.uniform(0.0, 0.3, n))
    bound = (1.0 - np.abs(products).max()) / 2.0
    shared = rng.uniform(-bound, bound, n)
    moments = []
    for i in range(n):
        ea, eb = (shared[i], shared[(i + 1) % n]) if consistent else rng.uniform(-bound, bound, 2)
        moments.append((ea, eb, products[i]))
    return cycle_from_moments(moments)


def cycle_from_moments(moments) -> System:
    """Rank-n cycle from one (mean of first, mean of second, product) triple
    per context; context c_i holds q_i and q_{i+1 mod n}."""
    n = len(moments)
    tables = [
        (f"c{i}", [f"q{i}", f"q{(i + 1) % n}"], bunch_probs_from_moments(*m))
        for i, m in enumerate(moments)
    ]
    return build_system([f"q{i}" for i in range(n)], tables)


def random_chain(rng: np.random.Generator, n: int) -> System:
    """Chain of n two-content contexts (c_i holds q_i and q_{i+1}), with
    independent Dirichlet tables: generally inconsistent."""
    tables = [
        (f"c{i}", [f"q{i}", f"q{i + 1}"], list(rng.dirichlet([1.0] * 4)))
        for i in range(n)
    ]
    return build_system([f"q{i}" for i in range(n + 1)], tables)


def random_star(rng: np.random.Generator, k: int) -> System:
    """A hub context of k contents q_i, each also measured in its own leaf
    context l_i together with up to two contents found nowhere else: a
    star of contexts, with independent Dirichlet tables."""
    contents = [f"q{i}" for i in range(k)]
    tables = [("hub", list(contents), list(rng.dirichlet([1.0] * (1 << k))))]
    for i in range(k):
        members = [f"q{i}", *(f"r{i}_{j}" for j in range(int(rng.integers(0, 3))))]
        contents += members[1:]
        tables.append((f"l{i}", members, list(rng.dirichlet([1.0] * (1 << len(members))))))
    return build_system(contents, tables)


def consistent_from_joint(system: System, rng: np.random.Generator) -> System:
    """The same shape with every bunch the marginal of one random joint
    over all contents, so every connection is consistent."""
    ids = [c.id for c in system.contents]
    joint = rng.dirichlet([0.5] * (1 << len(ids)))
    return build_system(ids, [
        (b.context, list(b.contents),
         marginalize_joint(joint, [ids.index(q) for q in b.contents], len(ids)))
        for b in system.bunches
    ])


def cyclic_criterion_margin(system: System, constraint: CouplingConstraint) -> float:
    """(n - 2 + Delta) - s_odd(e) for a rank-n cycle laid out as by
    random_cycle, from the bunch probabilities by enumeration: the system is
    noncontextual iff the margin is >= 0 (Kujala, Dzhafarov & Larsson, PRL
    115, 150401, 2015).  Under equal-always any marginal gap makes the margin
    -inf, since pairs with different marginals can never be equal always."""

    def mean(probs, bit):
        return sum(p if (a >> bit) & 1 else -p for a, p in enumerate(probs))

    tables = [b.probs for b in system.bunches]
    n = len(tables)
    e = [sum(p if (a & 1) == ((a >> 1) & 1) else -p for a, p in enumerate(t))
         for t in tables]
    delta = sum(abs(mean(tables[i], 0) - mean(tables[i - 1], 1)) for i in range(n))
    if constraint is CouplingConstraint.EQUAL_ALWAYS:
        if delta > 1e-9:
            return -np.inf
        delta = 0.0
    magnitudes = [abs(v) for v in e]
    s_odd = sum(magnitudes)
    if sum(v < 0 for v in e) % 2 == 0:
        s_odd -= 2.0 * min(magnitudes)
    return n - 2 + delta - s_odd


def permute_declarations(system: System, rng: np.random.Generator) -> System:
    """Same system, contents/contexts declared in a different order."""
    contents = list(system.contents)
    rng.shuffle(contents)
    order = rng.permutation(len(system.bunches))
    return System(tuple(contents), tuple(system.bunches[i] for i in order))


def flip_content(system: System, content: str) -> System:
    """Relabel +1 <-> -1 for one content in every context holding it."""
    bunches = []
    for bunch in system.bunches:
        if content in bunch.contents:
            mask = 1 << bunch.contents.index(content)
            probs = tuple(bunch.probs[i ^ mask] for i in range(len(bunch.probs)))
            bunches.append(Bunch(bunch.context, bunch.contents, probs))
        else:
            bunches.append(bunch)
    return System(system.contents, tuple(bunches))


def rename_ids(system: System, content_map: dict[str, str], context_map: dict[str, str]) -> System:
    contents = tuple(Content(content_map[c.id], c.label) for c in system.contents)
    bunches = tuple(
        Bunch(context_map[b.context], tuple(content_map[q] for q in b.contents), b.probs)
        for b in system.bunches
    )
    return System(contents, bunches)


def marginalize_joint(probs, positions: list[int], m: int) -> list[float]:
    """Distribution of the variables at ``positions`` under a joint vector
    over m binary variables, by direct enumeration (test-side oracle)."""
    index = np.arange(1 << m)
    local = np.zeros_like(index)
    for j, pos in enumerate(positions):
        local |= ((index >> pos) & 1) << j
    weights = np.asarray(probs, dtype=np.float64)
    return np.bincount(local, weights=weights, minlength=1 << len(positions)).tolist()


def pair_equal_probability(probs, u: int, v: int) -> float:
    """Pr[bit u == bit v] under a joint vector, by direct enumeration."""
    x = np.asarray(probs, dtype=np.float64)
    index = np.arange(x.size)
    return float(x[((index >> u) & 1) == ((index >> v) & 1)].sum())


def max_equality_by_basis_enumeration(a: float, b: float) -> float:
    """Independent maximizer of Pr[X = Y] for fixed Bernoulli marginals.

    The transport polytope {p >= 0 : p_yy + p_yn = a, p_yy + p_ny = b,
    sum p = 1} is searched exhaustively over its basic solutions: every
    choice of three basic variables out of four, solved exactly, kept if
    nonnegative.  The best objective among feasible bases is the LP optimum.
    """
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],   # p_yy + p_yn = a
        [1.0, 0.0, 1.0, 0.0],   # p_yy + p_ny = b
        [1.0, 1.0, 1.0, 1.0],   # total mass
    ])
    rhs = np.array([a, b, 1.0])
    objective = np.array([1.0, 0.0, 0.0, 1.0])  # p_yy + p_nn
    best = None
    for basis in itertools.combinations(range(4), 3):
        sub = A[:, basis]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x_basis = np.linalg.solve(sub, rhs)
        if x_basis.min() < -1e-12:
            continue
        x = np.zeros(4)
        x[list(basis)] = x_basis
        value = float(objective @ x)
        if best is None or value > best:
            best = value
    assert best is not None, f"transport polytope empty for a={a}, b={b}"
    return best


def clique_tree_by_rescanning(cliques: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Maximum-weight spanning tree on separator size (Prim, from clique 0)
    that rescans every (joined, unjoined) pair at each step: O(k**4) in the
    clique count k, the reference for the library's O(k**2) clique tree."""
    sets = [set(c) for c in cliques]
    joined = [0]
    edges = []
    while len(joined) < len(cliques):
        _, parent, child = max(
            (len(sets[p] & sets[c]), -p, -c)
            for p in joined
            for c in range(len(cliques))
            if c not in joined
        )
        edges.append((-parent, -child))
        joined.append(-child)
    return edges


def connections_by_scan(system: System) -> list[Connection]:
    """Every content's connection, found by scanning every bunch for every
    content: quadratic, the reference for the library's one-pass index."""
    return [
        Connection(content.id, tuple(
            (b.context, marginal(b, content.id))
            for b in system.bunches
            if content.id in b.contents
        ))
        for content in system.contents
    ]


def cycle_sides_by_scan(system: System, layout) -> tuple[list[float], dict[str, float]]:
    """cyclic._cycle_sides with a linear System.bunch lookup per use, the
    reference for its one index of the bunches."""
    n = layout.rank
    products = [
        product_expectation(
            system.bunch(layout.order[i][1][1]),
            layout.order[i][0],
            layout.order[(i + 1) % n][0],
        )
        for i in range(n)
    ]
    deltas = {
        q: abs(expectation(system.bunch(prev), q) - expectation(system.bunch(cur), q))
        for q, (prev, cur) in layout.order
    }
    return products, deltas


def _fresh_highs():
    """A new HiGHS instance with the CNT1 options passed again."""
    highspy = coupling._highspy()
    options = highspy.HighsOptions()
    options.presolve = "off"
    options.simplex_strategy = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.highs_debug_level = highspy.kHighsDebugLevelNone
    options.output_flag = options.log_to_console = False
    options.primal_feasibility_tolerance = coupling.TIGHT_TOL
    options.dual_feasibility_tolerance = coupling.TIGHT_TOL
    highs = highspy._Highs()
    highs.passOptions(options)
    return highs


def _cnt1_model(shape, b):
    """The shape's CNT1 LP with every row fixed to b."""
    highspy = coupling._highspy()
    n = len(shape.lp_cost)
    lp = highspy.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = n
    lp.num_row_ = lp.a_matrix_.num_row_ = len(b)
    lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
    lp.a_matrix_.start_ = shape.lp_start
    lp.a_matrix_.index_ = shape.lp_index
    lp.a_matrix_.value_ = shape.lp_value
    lp.col_cost_ = shape.lp_cost
    lp.col_lower_ = (0.0,) * n
    lp.col_upper_ = (math.inf,) * n
    lp.row_lower_ = lp.row_upper_ = b
    return lp


def _run_to_optimum(highs) -> None:
    highspy = coupling._highspy()
    highs.run()
    status = highs.getModelStatus()
    if status != highspy.HighsModelStatus.kOptimal:
        name = highs.modelStatusToString(status)
        raise SolverError(f"LP solver failed: HiGHS model status {name!r}")


def bunch_row_count(problem) -> int:
    """How many ``bunch[<context>][<a>]`` rows the problem's CNT1 LP has:
    they come first, before the separator rows."""
    return sum(label.startswith("bunch[") for label in problem.row_labels)


def uniform_cnt1_rhs(problem) -> list[float]:
    """The CNT1 right-hand side of the problem's shape with every bunch
    uniform, read off its row labels: 1/(entries of its bunch) on each
    ``bunch[<context>][<a>]`` row and 0 on every separator row."""
    labels = problem.row_labels
    bunches = bunch_row_count(problem)
    sizes = Counter(label.rsplit("[", 1)[0] for label in labels[:bunches])
    return [1.0 / sizes[label.rsplit("[", 1)[0]] for label in labels[:bunches]] + [
        0.0
    ] * (len(labels) - bunches)


@dataclass(frozen=True)
class Cnt1Solve:
    """One CNT1 solve read back from the HiGHS instance holding its optimum:
    the degree, the clique tables x* attaining it, the model status and the
    run's simplex iterations."""

    degree: float
    x: np.ndarray
    status: str
    iterations: int


def _read_cnt1(problem, highs) -> Cnt1Solve:
    info = highs.getInfo()
    deficit = sum(problem.targets) + info.objective_function_value
    return Cnt1Solve(
        max(0.0, 2.0 * deficit),
        np.array(highs.getSolution().col_value),
        highs.modelStatusToString(highs.getModelStatus()),
        info.simplex_iteration_count,
    )


def _cnt1_solve(problem, highs, basis=None):
    highs.passModel(_cnt1_model(problem.shape, problem.rhs.tolist()))
    if basis is not None:
        highs.setBasis(basis)
    _run_to_optimum(highs)
    return _read_cnt1(problem, highs)


def solve_cnt1(problem) -> Cnt1Solve:
    """The library's CNT1 solve (``coupling._solve_cnt1``) of the problem, on
    this thread's instance, read back as a Cnt1Solve."""
    return _read_cnt1(problem, coupling._solve_cnt1(problem.shape, problem.rhs.tolist()))


def solve_cnt1_fresh(problem):
    """The library's CNT1 solve on a new HiGHS instance made for this one
    call, with the options passed again and the start basis found again on
    it, from the uniform right-hand side (:func:`uniform_cnt1_rhs`): the
    reference for the library's one instance per thread and its cached
    start basis, whose results must not depend on what was solved before."""
    highs = _fresh_highs()
    highs.passModel(_cnt1_model(problem.shape, uniform_cnt1_rhs(problem)))
    _run_to_optimum(highs)
    return _cnt1_solve(problem, highs, highs.getBasis())


def solve_cnt1_cold(problem):
    """The CNT1 solve from the slack basis on a new HiGHS instance, as the
    library solved before it started from a start basis: the oracle for
    that start basis's degrees, verdicts and witnesses."""
    return _cnt1_solve(problem, _fresh_highs())


def clique_tables(problem, x) -> list[np.ndarray]:
    """The clique tables laid end to end in x, split per clique."""
    return np.split(np.asarray(x), problem.shape.offsets[1:-1])


def separator_entries(problem) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per tree edge, the separator entry that each entry of the parent's
    and of the child's table falls in."""
    return [
        (np.array(parent_entry), np.array(child_entry))
        for _, parent_entry, _, child_entry, _ in problem.shape.glue
    ]


def glue_numpy(problem, x):
    """The witness glue as numpy array operations, the way the library did
    it before it glued in plain floats: the clipped root table and each
    child's conditional table, and each clique's marginal of the glued
    joint laid out like x.  Its bits are the oracle for decide's tables,
    ``probs`` and ``max_constraint_violation``."""
    tables = clique_tables(problem, np.maximum(x, 0.0))
    marginals = list(tables)
    factors = [tables[0]]
    for (parent, child), (parent_entry, child_entry) in zip(
        problem.shape.tree, separator_entries(problem)
    ):
        table = tables[child]
        separator = np.bincount(child_entry, weights=table)
        den = separator[child_entry]
        conditional = np.divide(
            table, den, out=np.full_like(table, separator.size / table.size),
            where=den > 0,
        )
        from_parent = np.bincount(
            parent_entry, weights=marginals[parent], minlength=separator.size
        )
        marginals[child] = from_parent[child_entry] * conditional
        factors.append(conditional)
    return tuple(factors), np.concatenate(marginals)


def clique_check_numpy(problem, marginals) -> float:
    """The largest gap between a bunch entry, the mass or a pair's target of
    the problem and its value under the clique marginals, summed by
    ``np.bincount``: the check's rows are the LP's bunch rows, a mass row
    that asks for 1, then the pair rows."""
    rows, cols = problem.shape.check_entries
    want = np.array([*problem.rhs[:bunch_row_count(problem)], 1.0, *problem.targets])
    return float(
        np.abs(np.bincount(rows, weights=marginals[cols], minlength=want.size) - want).max()
    )


def dumps_canonical_reference(obj, indent: int = 2) -> str:
    """The canonical JSON writer as the library wrote it before its one-pass
    writer: a recursion that rebuilds the indent pads at every node and
    escapes every string and key with ``json.dumps``.  Its bytes (and the
    type of what it raises) are the oracle for ``fileio.dumps_canonical``."""
    pieces: list[str] = []
    _write_json_reference(obj, pieces, indent, 0)
    return "".join(pieces)


def _format_float_reference(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot serialize non-finite value {value!r}")
    return format(value + 0.0, ".17g")


def _write_json_reference(obj, out: list[str], indent: int, depth: int) -> None:
    pad = " " * (indent * (depth + 1))
    close_pad = " " * (indent * depth)
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float_reference(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(f"{pad}{json.dumps(key)}: ")
            _write_json_reference(value, out, indent, depth + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(f"{close_pad}}}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad)
            _write_json_reference(value, out, indent, depth + 1)
            out.append(",\n" if i < len(seq) - 1 else "\n")
        out.append(f"{close_pad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def max_deterministic_cyclic_lhs(n: int = 4) -> float:
    """Largest criterion left side any deterministic +1/-1 assignment can
    produce: the classical bound certified by exhaustive enumeration."""
    best = 0.0
    for values in itertools.product((-1.0, 1.0), repeat=n):
        products = [values[i] * values[(i + 1) % n] for i in range(n)]
        total = sum(products)
        best = max(best, max(abs(total - 2.0 * e) for e in products))
    return best


@dataclass(frozen=True, eq=False)
class JointProblem:
    """Equality system A x = rhs over the 2**m joint-assignment probabilities.

    Bit j of an assignment (least significant = variables[0]) carries
    variables[j], with bit value 1 meaning +1.  Rows encode, in order: every
    bunch entry of every context, one agreement probability per two-member
    connection, and total mass one.
    """

    variables: tuple[tuple[str, str], ...]
    matrix: np.ndarray
    rhs: np.ndarray
    row_labels: tuple[str, ...]


def build_joint_problem(system: System, constraint: CouplingConstraint) -> JointProblem:
    """The coupling problem over all 2**m joint assignments, dense."""
    variables = coupling_variables(system)
    n = 1 << len(variables)
    index = np.arange(n)
    var_pos = {var: j for j, var in enumerate(variables)}

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    labels: list[str] = []

    for bunch in system.bunches:
        bits = [(index >> var_pos[(q, bunch.context)]) & 1 for q in bunch.contents]
        for a, prob in enumerate(bunch.probs):
            mask = np.ones(n, dtype=bool)
            for j, bit in enumerate(bits):
                mask &= bit == ((a >> j) & 1)
            rows.append(mask)
            rhs.append(prob)
            labels.append(f"bunch[{bunch.context}][{a}]")

    for conn in connections(system):
        if len(conn.members) != 2:
            continue
        (ctx_a, marg_a), (ctx_b, marg_b) = conn.members
        u = (index >> var_pos[(conn.content, ctx_a)]) & 1
        v = (index >> var_pos[(conn.content, ctx_b)]) & 1
        rows.append(u == v)
        rhs.append(constraint.target(marg_a, marg_b))
        labels.append(f"equal[{conn.content}:{ctx_a}={ctx_b}]")

    rows.append(np.ones(n, dtype=bool))
    rhs.append(1.0)
    labels.append("mass")

    return JointProblem(
        variables=variables,
        matrix=np.array(rows, dtype=np.float64),
        rhs=np.array(rhs, dtype=np.float64),
        row_labels=tuple(labels),
    )


def brute_force_decide(
    system: System, constraint: CouplingConstraint
) -> FeasibilityVerdict:
    """Independent oracle for ``decide``, limited to m <= BRUTE_M_MAX.

    Searches the convex combinations of all 2**m deterministic couplings for
    one hitting the target vector, via a dense-tableau phase-1 simplex with
    Bland's rule: a different formulation, pivoting scheme, and elimination
    path than the clique-tree HiGHS solve behind decide.
    """
    m = len(coupling_variables(system))
    if m > BRUTE_M_MAX:
        raise SystemSizeError(
            f"brute-force decider handles at most {BRUTE_M_MAX} variables, got {m}"
        )
    problem = build_joint_problem(system, constraint)
    x = _phase1_bland(problem.matrix, problem.rhs.copy())
    residual = float(np.abs(problem.matrix @ x - problem.rhs).max())
    violation = max(residual, max(0.0, float(-x.min())))
    if violation > EPS_FEAS:
        return FeasibilityVerdict(
            feasible=False, witness=None, max_constraint_violation=violation
        )
    return FeasibilityVerdict(
        feasible=True,
        witness=CouplingWitness(problem.variables, (tuple(range(m)),), (), (x,)),
        max_constraint_violation=violation,
    )


def _phase1_bland(
    A: np.ndarray,
    b: np.ndarray,
    pivot_tol: float = 1e-9,
    max_pivots: int = 50_000,
) -> np.ndarray:
    """Phase-1 primal simplex on {x >= 0 : A x = b}, returning the x that
    minimizes the total artificial mass (zero iff the system is feasible).

    Bland's smallest-index rule is used for both the entering and leaving
    choices, which precludes cycling on these highly degenerate polytopes.
    """
    nr, nc = A.shape
    flip = b < 0
    A = np.where(flip[:, None], -A, A)
    b = np.where(flip, -b, b)

    # Tableau [A | I | b] with the artificial identity as starting basis.
    T = np.empty((nr, nc + nr + 1))
    T[:, :nc] = A
    T[:, nc : nc + nr] = np.eye(nr)
    T[:, -1] = b
    basis = np.arange(nc, nc + nr)

    # Reduced costs for min(sum of artificials): 0 - 1^T A_j on real columns.
    z = np.zeros(nc + nr)
    z[:nc] = -A.sum(axis=0)

    for _ in range(max_pivots):
        entering = np.flatnonzero(z < -pivot_tol)
        if entering.size == 0:
            break
        j = int(entering[0])
        col = T[:, j]
        candidates = np.flatnonzero(col > pivot_tol)
        if candidates.size == 0:
            # Phase-1 objective is bounded below by zero, so an unbounded
            # direction can only be numerical noise.
            raise SolverError("phase-1 simplex found an unbounded direction")
        ratios = T[candidates, -1] / col[candidates]
        best = ratios.min()
        ties = candidates[ratios <= best + 1e-12]
        r = int(ties[np.argmin(basis[ties])])

        T[r] /= T[r, j]
        reduce = T[:, j].copy()
        reduce[r] = 0.0
        T -= np.outer(reduce, T[r])
        z -= z[j] * T[r, :-1]
        basis[r] = j
    else:
        raise SolverError("phase-1 simplex exceeded the pivot budget")

    x = np.zeros(nc + nr)
    x[basis] = T[:, -1]
    return x[:nc]
