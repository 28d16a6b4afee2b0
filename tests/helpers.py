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
from dataclasses import dataclass

import numpy as np

from cbdsys import (
    EPS_FEAS,
    Bunch,
    Content,
    Context,
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


def cyclic_criterion_margin(system: System, constraint: CouplingConstraint) -> float:
    """(n - 2 + Delta) - s_odd(e) for a rank-n cycle laid out as by
    random_cycle, from the bunch probabilities by enumeration: the system is
    noncontextual iff the margin is >= 0 (Kujala, Dzhafarov & Larsson, PRL
    115, 150401, 2015).  Under equal-always any marginal gap makes the margin
    -inf, since pairs with different marginals can never be equal always."""

    def mean(probs, bit):
        return sum(p if (a >> bit) & 1 else -p for a, p in enumerate(probs))

    tables = [system.bunch(ctx.id).probs for ctx in system.contexts]
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
    order = rng.permutation(len(system.contexts))
    contexts = tuple(system.contexts[i] for i in order)
    bunches = tuple(system.bunch(ctx.id) for ctx in contexts)
    return System(tuple(contents), contexts, bunches)


def flip_content(system: System, content: str) -> System:
    """Relabel +1 <-> -1 for one content in every context holding it."""
    bunches = []
    for ctx in system.contexts:
        bunch = system.bunch(ctx.id)
        if content in ctx.contents:
            mask = 1 << ctx.contents.index(content)
            probs = tuple(bunch.probs[i ^ mask] for i in range(len(bunch.probs)))
            bunches.append(Bunch(ctx.id, ctx.contents, probs))
        else:
            bunches.append(bunch)
    return System(system.contents, system.contexts, tuple(bunches))


def rename_ids(system: System, content_map: dict[str, str], context_map: dict[str, str]) -> System:
    contents = tuple(Content(content_map[c.id], c.label) for c in system.contents)
    contexts = tuple(
        Context(context_map[ctx.id], tuple(content_map[q] for q in ctx.contents))
        for ctx in system.contexts
    )
    bunches = tuple(
        Bunch(context_map[b.context], tuple(content_map[q] for q in b.contents), b.probs)
        for b in system.bunches
    )
    return System(contents, contexts, bunches)


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

    for ctx in system.contexts:
        bunch = system.bunch(ctx.id)
        bits = [(index >> var_pos[(q, ctx.id)]) & 1 for q in ctx.contents]
        for a, prob in enumerate(bunch.probs):
            mask = np.ones(n, dtype=bool)
            for j, bit in enumerate(bits):
                mask &= bit == ((a >> j) & 1)
            rows.append(mask)
            rhs.append(prob)
            labels.append(f"bunch[{ctx.id}][{a}]")

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
