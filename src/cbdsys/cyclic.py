"""Closed-form noncontextuality criterion for cyclic systems of every rank.

A cyclic system of rank n has n contents and n contexts arranged in a single
cycle: every context holds exactly two contents and every content appears in
exactly two contexts.  Its maximal-equality coupling exists iff

    s_odd(e_1, ..., e_n)  <=  n - 2 + sum of per-content expectation gaps

(Kujala, Dzhafarov & Larsson, PRL 115, 150401, 2015), where e_i is the
product expectation of context i, s_odd is the largest sum of the e_i with
an odd number of them negated, and a content's gap is the absolute
difference of its expectations across its two contexts.  With all gaps zero
the right side is n - 2: at rank 4 that is the classical CHSH/Fine bound 2,
at rank 3 the Leggett-Garg/Suppes-Zanotti bound 1, at rank 5 the KCBS bound
3.  At rank 2 the left side is |e_1 - e_2|, and the question-order "QQ"
equality e_1 = e_2 makes such systems noncontextual no matter how unequal
the marginals are.

An equal-always coupling needs consistently connected input, where it is the
same criterion with the gaps left out.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coupling import CouplingConstraint
from .errors import InconsistentSystemError, RankError
from .system import (
    EPS_FEAS,
    EPS_PROB,
    System,
    consistency,
    expectation,
    product_expectation,
)


@dataclass(frozen=True)
class CyclicLayout:
    """Canonical traversal of a cyclic system.

    ``order[i]`` is ``(content, (previous context, current context))``: the
    i-th content of the cycle together with the two contexts holding it, and
    the *current* context is the one it shares with the next content.  The
    cycle starts at the lexicographically least content id and runs in the
    direction that makes the second content id least (ties broken by least
    current-context id), so equal systems always canonicalize identically.
    """

    rank: int
    order: tuple[tuple[str, tuple[str, str]], ...]

    def cycle_contexts(self) -> tuple[str, ...]:
        """Context ids in cycle order (current context of each entry)."""
        return tuple(pair[1] for _, pair in self.order)


@dataclass(frozen=True)
class CriterionResult:
    """Outcome of the cyclic criterion.

    ``deltas`` maps each content to its connection gap in expectation units,
    |<R in one context> - <R in the other>| (each in [0, 2]).  ``boundary``
    flags results within EPS_FEAS of lhs = rhs, which are reported
    noncontextual because the criterion is a non-strict inequality.
    """

    lhs: float
    rhs: float
    noncontextual: bool
    deltas: dict[str, float]
    margin: float
    boundary: bool

    @classmethod
    def from_sides(cls, lhs: float, rhs: float, deltas: dict[str, float]) -> "CriterionResult":
        return cls(
            lhs=lhs,
            rhs=rhs,
            noncontextual=lhs <= rhs + EPS_FEAS,
            deltas=dict(deltas),
            margin=rhs - lhs,
            boundary=abs(lhs - rhs) <= EPS_FEAS,
        )


def detect_cyclic(system: System) -> CyclicLayout | None:
    """Recognize a cyclic system of any rank and return its canonical layout.

    Returns None for everything else (not an error): contexts with other than
    two contents, contents in other than two contexts, or multiple disjoint
    cycles.
    """
    if any(len(ctx.contents) != 2 for ctx in system.contexts):
        return None

    holders: dict[str, list[str]] = {c.id: [] for c in system.contents}
    for ctx in system.contexts:
        for q in ctx.contents:
            if q not in holders:
                return None
            holders[q].append(ctx.id)
    if any(len(ctxs) != 2 for ctxs in holders.values()):
        return None

    rank = len(system.contexts)
    if rank != len(system.contents):
        return None

    other_content = {
        ctx.id: {ctx.contents[0]: ctx.contents[1], ctx.contents[1]: ctx.contents[0]}
        for ctx in system.contexts
    }

    start = min(holders)
    # Direction: pick the start context giving the least second content,
    # then the least context id.
    first_ctx = min(
        holders[start], key=lambda cid: (other_content[cid][start], cid)
    )

    order: list[tuple[str, tuple[str, str]]] = []
    q, cur = start, first_ctx
    for _ in range(rank):
        if holders[q][0] == holders[q][1]:
            return None  # a context listing one content twice is not a cycle
        prev = holders[q][0] if holders[q][1] == cur else holders[q][1]
        order.append((q, (prev, cur)))
        q = other_content[cur][q]
        cur = holders[q][0] if holders[q][1] == cur else holders[q][1]

    # The walk must close into a single cycle covering every content.
    if q != start or len({entry[0] for entry in order}) != rank:
        return None
    return CyclicLayout(rank=rank, order=tuple(order))


def _cycle_sides(system: System, layout: CyclicLayout) -> tuple[list[float], dict[str, float]]:
    """Per-context product expectations (cycle order) and per-content gaps."""
    n = layout.rank
    products = []
    for i in range(n):
        q_i = layout.order[i][0]
        q_next = layout.order[(i + 1) % n][0]
        ctx = layout.order[i][1][1]
        products.append(product_expectation(system.bunch(ctx), q_i, q_next))
    deltas = {}
    for q, (prev, cur) in layout.order:
        deltas[q] = abs(
            expectation(system.bunch(prev), q) - expectation(system.bunch(cur), q)
        )
    return products, deltas


def cyclic_criterion(
    system: System, layout: CyclicLayout, constraint: CouplingConstraint
) -> CriterionResult:
    """The rank-n criterion s_odd(e) <= n - 2 + sum of gaps.

    Under equal-always the gaps must vanish: inconsistently connected input
    is refused, and the right side is n - 2.
    """
    if constraint is CouplingConstraint.EQUAL_ALWAYS:
        gap = consistency(system).max_marginal_gap
        if gap > EPS_PROB:
            raise InconsistentSystemError(
                "no closed form for equal-always on inconsistently connected"
                f" systems (max marginal gap {gap:g}); use --method lp"
            )
    products, deltas = _cycle_sides(system, layout)
    # s_odd: negate the smallest |e_i| unless an odd number are negative.
    magnitudes = [abs(e) for e in products]
    lhs = sum(magnitudes)
    if sum(e < 0 for e in products) % 2 == 0:
        lhs -= 2.0 * min(magnitudes)
    rhs = float(layout.rank - 2)
    if constraint is CouplingConstraint.MAX_EQUALITY:
        rhs += sum(deltas.values())
    return CriterionResult.from_sides(lhs, rhs, deltas)


def _require_rank(layout: CyclicLayout, rank: int, what: str) -> None:
    if layout.rank != rank:
        raise RankError(f"{what} applies to rank {rank}, got rank {layout.rank}")


def chsh_fine(system: System, layout: CyclicLayout) -> CriterionResult:
    """Classical CHSH/Fine criterion: the rank-4 equal-always criterion,
    which refuses inconsistently connected input."""
    _require_rank(layout, 4, "CHSH/Fine")
    return cyclic_criterion(system, layout, CouplingConstraint.EQUAL_ALWAYS)


def cbd_cyclic4(system: System, layout: CyclicLayout) -> CriterionResult:
    """The rank-4 maximal-equality criterion."""
    _require_rank(layout, 4, "cyclic-4 criterion")
    return cyclic_criterion(system, layout, CouplingConstraint.MAX_EQUALITY)


def cbd_cyclic2(system: System, layout: CyclicLayout) -> CriterionResult:
    """The rank-2 maximal-equality criterion."""
    _require_rank(layout, 2, "cyclic-2 criterion")
    return cyclic_criterion(system, layout, CouplingConstraint.MAX_EQUALITY)


def qq_statistic(system: System, layout: CyclicLayout) -> float:
    """Signed difference of the two product expectations of a rank-2 system,
    taken in canonical cycle order.

    Zero (the question-order "QQ" equality) makes the rank-2 criterion's left
    side vanish, so the system is noncontextual regardless of its marginals.
    """
    _require_rank(layout, 2, "QQ statistic")
    products, _ = _cycle_sides(system, layout)
    return products[0] - products[1]
