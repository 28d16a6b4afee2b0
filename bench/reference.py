"""Independent reference for the benchmark's correctness checks.

Everything here works from plain data: per context, its id, its ordered
content ids and its dense probability vector (bit j of an index, least
significant first, is 1 when the j-th content of the context is +1).  It
uses numpy and the standard library only and calls nothing in cbdsys, so a
check of cbdsys against these functions compares two separate derivations.

Cyclic systems of any rank n (Kujala, Dzhafarov & Larsson, PRL 115, 150401,
2015): with e_i the product expectation of context i and Delta_i the gap of
content i's expectations across its two contexts, the maximal-equality
coupling exists iff

    s_odd(e_1, ..., e_n) <= n - 2 + sum_i Delta_i,

where s_odd is the largest signed sum of the e_i with an odd number of minus
signs.  The equal-always coupling needs, in addition, every Delta_i = 0
(consistent connectedness).

Forests (contexts as nodes, two-member connections as edges, no cycle): the
pairwise couplings can be glued one edge at a time along the tree, so the
maximal-equality coupling always exists and the equal-always one exists iff
the system is consistently connected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Verdict tolerance published with the package (README, "Tolerances"):
#: results within it of a criterion or feasibility boundary count as
#: noncontextual.  Fixed here rather than imported, to keep the reference apart.
EPS_FEAS = 1e-7
#: Probability tolerance published with the package; consistent connectedness
#: allows marginal gaps up to it.
EPS_PROB = 1e-9

MAX_EQUALITY = "max-equality"
EQUAL_ALWAYS = "equal-always"


@dataclass(frozen=True)
class Context:
    id: str
    contents: tuple[str, ...]
    probs: np.ndarray


@dataclass(frozen=True)
class Verdict:
    """Reference outcome.  ``lhs``/``rhs`` are the criterion's sides for
    cyclic systems (None for forests).  ``margin`` is the signed distance to
    the verdict boundary: rhs - lhs, or -(largest marginal gap) where the
    equal-always verdict fails on consistency, or +inf where no boundary is
    near (a forest under maximal equality, or a consistent one)."""

    noncontextual: bool
    margin: float
    rank: int | None
    lhs: float | None
    rhs: float | None


def plus_probability(ctx: Context, content: str) -> float:
    bit = ctx.contents.index(content)
    index = np.arange(len(ctx.probs))
    return float(ctx.probs[((index >> bit) & 1) == 1].sum())


def expectation(ctx: Context, content: str) -> float:
    return 2.0 * plus_probability(ctx, content) - 1.0


def product_expectation(ctx: Context, a: str, b: str) -> float:
    u, v = ctx.contents.index(a), ctx.contents.index(b)
    index = np.arange(len(ctx.probs))
    same = ((index >> u) & 1) == ((index >> v) & 1)
    return float(ctx.probs[same].sum() - ctx.probs[~same].sum())


def s_odd(values) -> float:
    """Largest sum of +-values with an odd number of minus signs."""
    mags = [abs(v) for v in values]
    negatives = sum(1 for v in values if v < 0)
    total = sum(mags)
    return total if negatives % 2 == 1 else total - 2.0 * min(mags)


def holders(spec: list[Context]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for i, ctx in enumerate(spec):
        for q in ctx.contents:
            out.setdefault(q, []).append(i)
    return out


def connection_pairs(spec: list[Context]) -> list[tuple[str, int, int]]:
    """(content, context index, context index) for every two-member connection."""
    return [(q, idx[0], idx[1]) for q, idx in holders(spec).items() if len(idx) == 2]


def marginal_gap(spec: list[Context]) -> float:
    gap = 0.0
    for q, i, j in connection_pairs(spec):
        gap = max(gap, abs(plus_probability(spec[i], q) - plus_probability(spec[j], q)))
    return gap


def cycle(spec: list[Context]) -> list[tuple[int, str, str]] | None:
    """Walk a single cycle of two-content contexts: [(context index, content
    entering, content leaving)], or None if the system is not one cycle."""
    if any(len(ctx.contents) != 2 or ctx.contents[0] == ctx.contents[1] for ctx in spec):
        return None
    held = holders(spec)
    if any(len(idx) != 2 for idx in held.values()) or len(held) != len(spec):
        return None
    walk = []
    i, q_in = 0, spec[0].contents[0]
    for _ in range(len(spec)):
        a, b = spec[i].contents
        q_out = b if q_in == a else a
        walk.append((i, q_in, q_out))
        pair = held[q_out]
        i, q_in = (pair[1] if pair[0] == i else pair[0]), q_out
    if i != 0 or q_in != spec[0].contents[0] or len({w[0] for w in walk}) != len(spec):
        return None
    return walk


def is_forest(spec: list[Context]) -> bool:
    held = holders(spec)
    if any(len(idx) > 2 for idx in held.values()):
        return False
    parent = list(range(len(spec)))

    def root(k: int) -> int:
        while parent[k] != k:
            k = parent[k]
        return k

    for _, i, j in connection_pairs(spec):
        ri, rj = root(i), root(j)
        if ri == rj:
            return False
        parent[ri] = rj
    return True


def verdict(spec: list[Context], constraint: str) -> Verdict:
    walk = cycle(spec)
    if walk is not None:
        n = len(walk)
        products = [product_expectation(spec[i], a, b) for i, a, b in walk]
        deltas = []
        for k, (i, _, q_out) in enumerate(walk):
            j = walk[(k + 1) % n][0]
            deltas.append(abs(expectation(spec[i], q_out) - expectation(spec[j], q_out)))
        lhs = s_odd(products)
        if constraint == MAX_EQUALITY:
            rhs = n - 2 + math.fsum(deltas)
            return Verdict(lhs <= rhs + EPS_FEAS, rhs - lhs, n, lhs, rhs)
        rhs = float(n - 2)
        gap = marginal_gap(spec)
        if gap > EPS_PROB:
            return Verdict(False, -gap, n, lhs, rhs)
        return Verdict(lhs <= rhs + EPS_FEAS, rhs - lhs, n, lhs, rhs)
    if is_forest(spec):
        if constraint == MAX_EQUALITY:
            return Verdict(True, math.inf, None, None, None)
        gap = marginal_gap(spec)
        return Verdict(gap <= EPS_PROB, math.inf if gap <= EPS_PROB else -gap, None, None, None)
    raise ValueError("no reference verdict: the system is neither one cycle nor a forest")


def qq(spec: list[Context]) -> float:
    """Difference of the two product expectations of a question-order system."""
    first, second = spec
    a, b = first.contents
    return product_expectation(first, a, b) - product_expectation(second, a, b)


def witness_defect(
    spec: list[Context],
    constraint: str,
    variables: list[tuple[str, str]],
    probs,
) -> float:
    """Worst defect of a claimed coupling, by direct enumeration of its
    2**m joint assignments: bunch reproduction error, negative mass, and miss
    of each connection pair's target Pr[equal] (1 - |a - b|, or 1)."""
    x = np.asarray(probs, dtype=np.float64)
    m = len(variables)
    if x.shape != (1 << m,):
        return math.inf
    index = np.arange(1 << m)
    pos = {var: j for j, var in enumerate(variables)}
    if len(pos) != sum(len(ctx.contents) for ctx in spec):
        return math.inf
    defect = max(0.0, float(-x.min()))
    for ctx in spec:
        local = np.zeros(1 << m, dtype=np.int64)
        for j, q in enumerate(ctx.contents):
            if (q, ctx.id) not in pos:
                return math.inf
            local |= ((index >> pos[(q, ctx.id)]) & 1) << j
        got = np.bincount(local, weights=x, minlength=len(ctx.probs))
        defect = max(defect, float(np.abs(got - ctx.probs).max()))
    for q, i, j in connection_pairs(spec):
        u, v = pos[(q, spec[i].id)], pos[(q, spec[j].id)]
        equal = float(x[((index >> u) & 1) == ((index >> v) & 1)].sum())
        if constraint == MAX_EQUALITY:
            target = 1.0 - abs(plus_probability(spec[i], q) - plus_probability(spec[j], q))
        else:
            target = 1.0
        defect = max(defect, abs(equal - target))
    return defect


def probs_from_moments(ea: float, eb: float, eab: float) -> np.ndarray:
    """2x2 table from two means and the product expectation:
    Pr[x, y] = (1 + x ea + y eb + x y eab) / 4."""
    out = []
    for index in range(4):
        x = 1.0 if index & 1 else -1.0
        y = 1.0 if index & 2 else -1.0
        out.append((1.0 + x * ea + y * eb + x * y * eab) / 4.0)
    return np.array(out)


def double_slit_spec(p: float, q: float, pp: float, qp: float, rp: float) -> list[Context]:
    """The paper's two-slit tables: contexts named (left state)_(right state),
    each pairing the two slit-state contents in force; nothing passes a
    closed slit."""
    return [
        Context("open_open", ("left_open", "right_open"), np.array([1 - rp - pp - qp, pp, qp, rp])),
        Context("closed_open", ("left_closed", "right_open"), np.array([1 - q, 0.0, q, 0.0])),
        Context("closed_closed", ("left_closed", "right_closed"), np.array([1.0, 0.0, 0.0, 0.0])),
        Context("open_closed", ("left_open", "right_closed"), np.array([1 - p, p, 0.0, 0.0])),
    ]
