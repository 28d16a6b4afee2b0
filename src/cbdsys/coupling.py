"""Coupling-feasibility engine for arbitrary binary systems.

A system is noncontextual exactly when one joint distribution exists over
*all* its variables (one per (content, context) incidence) that reproduces
every bunch and gives each within-connection pair its required probability of
agreeing: 1 for the "equal always" (reduced-coupling) constraint, or the
maximal-coupling value 1 - |a - b| for the default "equal with maximal
possible probability" constraint.

For +1/-1 variables a pair's 2x2 table is fixed by its two marginals and its
Pr[equal], so existence is a marginal problem on the hypergraph whose edges
are the contexts and the connection pairs.  The engine therefore never
enumerates the 2**m joint assignments (m = total variable count) in the LP:

* the *primal graph* has one node per variable and an edge between any two
  variables of one context or of one connection pair;
* greedy min-fill elimination triangulates it, its maximal cliques are kept,
  and a maximum-weight spanning tree on separator size joins them into a
  clique tree (empty separators link disconnected components, so every
  component carries the same total mass);
* the LP has one unknown per entry of each clique table (sum of 2**|C|
  unknowns), reads every bunch, equal and mass row off a clique holding its
  variables, and makes neighbouring cliques agree on their separators.

On a clique tree, locally consistent tables always extend to a global joint
(Vorob'ev 1962; Abramsky & Brandenburger, NJP 13, 2011), so the LP's optimum
is exactly the optimum over all 2**m joint assignments.

Every bunch entry, the total mass and every separator row is a hard
equality, and the connection pairs enter only the objective: :func:`decide`
maximizes the sum of Pr[pair equal] over all couplings of the bunches, the
CNT1 LP of Kujala & Dzhafarov, "Measures of contextuality and
non-contextuality", Phil. Trans. R. Soc. A 377 (2019).  The deficit is the
sum of the pairs' targets minus that maximum, and the *degree* of
contextuality is twice the deficit (clamped at 0): for cyclic systems it
equals the criterion excess s_odd - (n - 2) - sum of gaps in expectation
units (Dzhafarov, Kujala & Cervantes, PRA 101, 042119, 2020), so both routes
compare one number with EPS_FEAS.  The LP always has a solution, since the
product of the bunches is a coupling, and one HiGHS run decides it: called
directly through the bindings scipy ships (``scipy.optimize._highspy._core``),
dual simplex without presolve at TIGHT_TOL tolerances, on one instance per
thread.  Each solve starts from its shape's start basis, never from an
earlier system's (see below), so a result does not depend on what was
solved before or on which thread solves it.  When the degree is at
most EPS_FEAS the witness stays in clique-tree form: the root's table, then
each child's table conditioned on its separator.  Their product is the glued
joint.  One top-down pass over the tree gives every clique's marginal of
that joint, and the witness is checked against every bunch, equal and mass
row per clique, in work bounded by the clique-table sizes, not by 2**m.  The
dense 2**m joint, a read-only float64 array, is built only when
:attr:`CouplingWitness.probs` is first read; :func:`witness_violation`
still checks any claimed witness by enumerating it.  M_MAX bounds the size
of that dense joint.

Only the right-hand side and the row names depend on a system's
probabilities and ids.  The triangulation, clique tree and HiGHS column
arrays and costs depend only on its *shape* (variable count, bunch positions,
connection-pair positions), so they are built once per shape and kept in a
bounded cache: a sweep over one scenario builds its LP once.  So is the
shape's start basis: an optimal basis of its CNT1 LP with every bunch
uniform, found by one solve on first use.  Since only the right-hand side
varies within a shape, that basis is dual feasible for every system of the
shape, and dual simplex started from it only repairs primal
infeasibilities.  On 400 rank-2 and rank-4 systems a solve takes 5.5
simplex iterations instead of 33 from the slack basis, and a HiGHS run 60
instead of 129 us (2-core VM).  A decide whose shape is not cached pays the
start-basis solve as well, so a run of one-off shapes is about a fifth
slower than from the slack basis.

A :func:`decide` on a cached shape pays only for what depends on the
system: one pass over the bunches for the positions and pair targets
(marginals only for two-member connections), the right-hand side, the
row bounds of the shape's HighsLp, which each thread keeps, then
``passModel``, ``setBasis``, ``run`` and the witness.  It formats no row
name: :attr:`FeasibilityProblem.row_labels` is built when first read.  The
witness glue runs in plain floats along a per-shape plan, in the order
numpy would add, so its tables are the same to the bit.  On 400 rank-2 and
rank-4 systems a decide takes about 105 us, of which the HiGHS run is 58
(2-core VM).  Hand HiGHS the model as a HighsLp only: passModel's overloads
that take numpy arrays returned "Optimal" after 0 iterations with a primal
residual of 0.6 on a 16-variable cycle of the benchmark's ``large-m``.

Nothing loads this module, or numpy, until a program first needs the LP:
``import cbdsys`` serves this module's names on first access, and the CLI
imports it on its first :func:`decide`.  CouplingConstraint and
max_equality_probability, which the closed forms share, live in
:mod:`cbdsys.system` and are re-exported here.  numpy's import takes about
40 ms on a 2-core VM, so a CLI run that needs no LP takes about 58 ms
instead of 100 ms.  The HiGHS bindings load on the first LP solve, and
alone: :func:`_highspy` loads that one extension module out of scipy's
package directory (about 4 ms there) and never imports ``scipy`` or
``scipy.optimize``, whose import takes about 0.25 s.  A CLI run that solves
an LP takes about 0.11 s instead of 0.40 s.
Each :func:`decide` logs one debug record (variable count, cliques, CNT1 LP
rows x columns, HiGHS model status, simplex iteration count, degree,
verdict) on this module's logger.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import sys
import threading
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from .errors import ConnectionSizeError, SolverError, SystemSizeError
from .system import EPS_FEAS, Bunch, System

# The data model defines these, so the closed forms need not load this
# module; they stay importable from here.
from .system import CouplingConstraint, max_equality_probability  # noqa: F401

log = logging.getLogger(__name__)

#: Hard cap on the total variable count: a witness's dense joint has
#: 2**M_MAX entries.
M_MAX = 20

#: HiGHS primal and dual feasibility tolerance, 100x tighter than EPS_FEAS.
#: A degree above it but at most EPS_FEAS is feasible and flagged "boundary".
TIGHT_TOL = 1e-10

#: Distinct system shapes (variable count, bunch and pair positions) whose
#: clique-tree LP is kept for reuse.
SHAPE_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class _Shape:
    """The part of the clique-tree LP that depends only on where each bunch
    and connection pair sits: everything of a FeasibilityProblem except its
    right-hand side and variable names, plus the CNT1 LP handed to HiGHS.

    ``bunch_positions`` and ``pair_positions`` are the variable positions it
    was built for.  ``entries`` holds the problem matrix's nonzeros as (rows,
    columns, values); ``pair_rows`` are its connection-pair rows.  The CNT1
    LP keeps every other row as a hard equality, in the same order, and
    minimizes ``lp_cost``, which is minus the sum of the pair rows, over
    columns bounded by ``lp_lower`` and ``lp_upper``.  Its constraint matrix
    is stored column-wise as (lp_start, lp_index, lp_value), in tuples
    because HiGHS's bindings read those fastest; only the row bounds vary
    per call, and each thread converts the rest once per shape
    (:func:`_cnt1_lp`).  ``uniform_rhs`` is its right-hand side when every
    bunch is uniform (1/2**k per entry of a k-content bunch), mass 1 and
    separators 0, and ``start_basis``, an optimal basis at that right-hand
    side, starts every solve of this shape.

    The witness is glued in plain floats with ``offsets``, where each clique
    table starts in the columns (and where the last ends), and ``glue``, per
    tree edge the offset of the parent's table, the separator entry that
    each of its entries falls in, the same for the child's table, and the
    separator's entry count.  It is checked with ``elastic_entries``, the
    rows and columns of the elastic rows' nonzeros, which are all 1.
    """

    bunch_positions: tuple[tuple[int, ...], ...]
    pair_positions: tuple[tuple[int, int], ...]
    cliques: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int], ...]
    elastic_rows: int
    pair_rows: slice
    separator_labels: tuple[str, ...]
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    offsets: tuple[int, ...]
    glue: tuple[tuple[int, tuple[int, ...], int, tuple[int, ...], int], ...]
    elastic_entries: tuple[np.ndarray, np.ndarray]
    lp_start: tuple[int, ...]
    lp_index: tuple[int, ...]
    lp_value: tuple[float, ...]
    lp_cost: tuple[float, ...]
    lp_lower: tuple[float, ...]
    lp_upper: tuple[float, ...]
    uniform_rhs: tuple[float, ...]

    @cached_property
    def start_basis(self):
        """An optimal HiGHS basis of the CNT1 LP at ``uniform_rhs``, from one
        solve on this thread's instance, made on first use and kept.

        The product of uniform bunches is a coupling, so that LP has an
        optimum.  Systems of one shape differ only in the right-hand side,
        so the basis is dual feasible for every one of them, and dual
        simplex started from it only repairs primal infeasibilities.  It
        depends on the shape alone, never on the systems solved before.
        """
        highs = _solver()
        highs.passModel(_cnt1_lp(self, self.uniform_rhs))
        _run(highs)
        return highs.getBasis()

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense problem matrix, built on first use and read-only."""
        rows, cols, values = self.entries
        matrix = np.zeros(
            (self.elastic_rows + len(self.separator_labels), len(self.lp_cost))
        )
        matrix[rows, cols] = values
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """The clique-tree LP over clique tables x >= 0.

    ``variables`` fixes the variable positions and the witness's bit
    convention: bit j of a joint assignment (least significant =
    variables[0]) carries variables[j], with bit value 1 meaning +1.
    ``cliques`` lists each maximal clique as ascending variable positions;
    the unknowns are the clique tables laid end to end, and bit j of an
    entry of clique C's table carries variables[C[j]].  ``tree`` lists the
    clique-tree edges as (parent, child), root (clique 0) first.

    The first ``elastic_rows`` rows of ``matrix`` are, in order: every bunch
    entry of every context, one agreement probability per two-member
    connection, and total mass one.  The remaining rows (right-hand side 0)
    make each tree edge's two cliques agree on their separator.

    ``cliques``, ``tree``, ``matrix`` and ``elastic_rows`` belong to the
    system's shape and are shared by every system of that shape (``matrix``
    is built on first use and is read-only); ``variables`` and ``rhs`` are
    this system's own.  ``row_labels`` names every row from the variable
    names, and is formatted only when first read.
    """

    variables: tuple[tuple[str, str], ...]
    shape: _Shape
    rhs: np.ndarray

    @cached_property
    def row_labels(self) -> tuple[str, ...]:
        """``bunch[<context>][<entry>]``, ``equal[<content>:<context>=<context>]``,
        ``mass`` and ``separator[<parent>-<child>][<entry>]``, row by row."""
        names = self.variables
        labels = [
            f"bunch[{names[positions[0]][1]}][{a}]"
            for positions in self.shape.bunch_positions
            for a in range(1 << len(positions))
        ]
        labels += [
            f"equal[{names[u][0]}:{names[u][1]}={names[v][1]}]"
            for u, v in self.shape.pair_positions
        ]
        labels.append("mass")
        return tuple(labels) + self.shape.separator_labels

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def cliques(self) -> tuple[tuple[int, ...], ...]:
        return self.shape.cliques

    @property
    def tree(self) -> tuple[tuple[int, int], ...]:
        return self.shape.tree

    @property
    def matrix(self) -> np.ndarray:
        return self.shape.matrix

    @property
    def elastic_rows(self) -> int:
        return self.shape.elastic_rows


@dataclass(frozen=True, eq=False)
class CouplingWitness:
    """A joint distribution certifying noncontextuality, in clique-tree form.

    ``variables``, ``cliques`` and ``tree`` are as in FeasibilityProblem.
    ``tables`` holds clique 0's table, then, for each tree edge in order,
    the child clique's table conditioned on the separator it shares with its
    parent: nonnegative, and summing to one over each separator entry.  The
    joint is their product, so a dense joint is the one-clique case,
    ``CouplingWitness(variables, (tuple(range(m)),), (), (probs,))``.

    ``probs`` is that joint over all 2**m assignments, in FeasibilityProblem's
    bit order, as a read-only float64 array; it is built on first read and
    kept.  Witnesses compare by identity, never by their arrays.
    """

    variables: tuple[tuple[str, str], ...]
    cliques: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int], ...]
    tables: tuple[np.ndarray, ...]

    @cached_property
    def probs(self) -> np.ndarray:
        """The product of the tables, taken over the joint viewed as an
        m-axis array whose axis k carries variable m-1-k (C order, so bit j
        of the flat index is variable j).  A table over ascending positions
        reshapes onto those axes directly, with size-1 axes broadcasting the
        rest."""
        m = len(self.variables)

        def spread(clique: tuple[int, ...], table: np.ndarray) -> np.ndarray:
            return table.reshape([2 if m - 1 - k in clique else 1 for k in range(m)])

        joint = spread(self.cliques[0], self.tables[0])
        for (_, child), table in zip(self.tree, self.tables[1:]):
            joint = joint * spread(self.cliques[child], table)
        probs = joint.reshape(-1).astype(np.float64, copy=False)
        probs.flags.writeable = False
        return probs


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of a coupling-existence decision.

    ``degree`` is the degree of contextuality: twice the CNT1 deficit, the
    sum of the connection pairs' targets minus the largest sum of
    Pr[pair equal] any coupling of the bunches reaches, clamped at 0.  It is
    in expectation units, like the cyclic criterion's excess, and the
    system is feasible iff it is at most EPS_FEAS.
    ``max_constraint_violation`` is the witness's worst residual when
    feasible, and the degree when not.  The residual is checked per clique:
    the largest gap between a bunch entry, agreement probability or the
    total mass of the witness and its target, read off the clique marginals
    of the glued joint, which has no negative mass by construction.
    ``boundary`` marks feasible verdicts whose degree lies in
    (TIGHT_TOL, EPS_FEAS].
    """

    feasible: bool
    witness: CouplingWitness | None
    max_constraint_violation: float
    boundary: bool = False
    degree: float = 0.0


@dataclass(frozen=True)
class _Marginals:
    """What a coupling must reproduce, by variable position: each context's
    bunch as (positions, probs) and each two-member connection as
    (u, v, target Pr[equal])."""

    variables: tuple[tuple[str, str], ...]
    bunches: tuple[tuple[tuple[int, ...], tuple[float, ...]], ...]
    pairs: tuple[tuple[int, int, float], ...]


def coupling_variables(system: System) -> tuple[tuple[str, str], ...]:
    """(content, context) pairs in canonical order: contexts as declared,
    contents in context order."""
    return tuple((q, b.context) for b in system.bunches for q in b.contents)


def _marginals(system: System, constraint: CouplingConstraint) -> _Marginals:
    """Requires connections of at most two members each and at most M_MAX
    variables in all (a System is valid by construction).

    One pass over the bunches lists each content's holders with the
    variable positions, and only the members of two-member connections have
    their marginals read, from each bunch's kept ``plus_probs``.
    """
    holders: dict[str, list[tuple[Bunch, int, int]]] = {c.id: [] for c in system.contents}
    variables = []
    bunches = []
    for b in system.bunches:
        start = len(variables)
        for j, q in enumerate(b.contents):
            holders[q].append((b, j, len(variables)))
            variables.append((q, b.context))
        bunches.append((tuple(range(start, len(variables))), b.probs))
    for q, held in holders.items():
        if len(held) > 2:
            raise ConnectionSizeError(
                f"content {q!r} appears in {len(held)} contexts;"
                " pairwise coupling constraints support at most 2"
            )
    m = len(variables)
    if m > M_MAX:
        raise SystemSizeError(
            f"coupling over {m} variables needs a 2^{m}-entry witness;"
            f" limit is 2^{M_MAX}"
        )
    pairs = []
    for held in holders.values():
        if len(held) == 2:
            (a, i, u), (b, j, v) = held
            pairs.append((u, v, constraint.target(a.plus_probs[i], b.plus_probs[j])))
    return _Marginals(tuple(variables), tuple(bunches), tuple(pairs))


def _gather_bits(index: np.ndarray, bits) -> np.ndarray:
    """For each entry of ``index``, the number whose bit j is its bit bits[j]."""
    out = np.zeros_like(index)
    for j, bit in enumerate(bits):
        out |= ((index >> bit) & 1) << j
    return out


def _triangulate(m: int, edges) -> list[tuple[int, ...]]:
    """Maximal cliques of a min-fill triangulation of the graph on m nodes,
    in elimination order, each as ascending node numbers.

    Each step eliminates the node whose neighbours lack the fewest edges
    among themselves (ties: fewest neighbours, then lowest number), joins
    those neighbours, and records the node with its neighbours as a clique.
    """
    adj: list[set[int]] = [set() for _ in range(m)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def fill(v: int) -> int:
        return sum(1 for a, b in combinations(adj[v], 2) if b not in adj[a])

    remaining = set(range(m))
    cliques: list[frozenset[int]] = []
    while remaining:
        v = min(remaining, key=lambda v: (fill(v), len(adj[v]), v))
        for a, b in combinations(adj[v], 2):
            adj[a].add(b)
            adj[b].add(a)
        for a in adj[v]:
            adj[a].discard(v)
        cliques.append(frozenset(adj[v] | {v}))
        remaining.discard(v)
    return [
        tuple(sorted(c)) for c in cliques if not any(c < other for other in cliques)
    ]


def _clique_tree(cliques: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Maximum-weight spanning tree on separator size (Prim, from clique 0),
    as (parent, child) edges in the order the children join.

    Each unjoined clique keeps its best (separator size, -parent) over the
    joined ones, and the next to join is the max of (best, -child): ties go
    to the larger separator, then the lowest parent, then the lowest child.
    Joining a clique updates every other best once, so k cliques take
    O(k**2) separator sizes.
    """
    sets = [set(c) for c in cliques]
    best = {c: (len(sets[0] & sets[c]), 0) for c in range(1, len(cliques))}
    edges = []
    while best:
        (_, parent), child = max((b, -c) for c, b in best.items())
        parent, child = -parent, -child
        del best[child]
        edges.append((parent, child))
        for c, b in best.items():
            best[c] = max(b, (len(sets[child] & sets[c]), -child))
    return edges


def _separator(cliques, edge: tuple[int, int]) -> tuple[int, ...]:
    parent, child = edge
    return tuple(sorted(set(cliques[parent]) & set(cliques[child])))


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(
    m: int,
    bunch_positions: tuple[tuple[int, ...], ...],
    pair_positions: tuple[tuple[int, int], ...],
) -> _Shape:
    """Triangulate, build the clique tree and assemble the LP's nonzeros,
    column by clique-table entry, for bunches and connection pairs at the
    given variable positions."""
    edges = [
        edge for positions in bunch_positions for edge in combinations(positions, 2)
    ]
    edges += list(pair_positions)
    cliques = _triangulate(m, edges)
    tree = _clique_tree(cliques)
    offsets = np.cumsum([0] + [1 << len(c) for c in cliques])
    triples: list[tuple[np.ndarray, np.ndarray, float]] = []

    def marginal(i: int, positions) -> tuple[np.ndarray, np.ndarray]:
        """For each column of clique i's table, the entry of its marginal
        over ``positions`` it adds to (bit j of the entry carries
        positions[j]), and the column itself."""
        clique = cliques[i]
        entry = _gather_bits(
            np.arange(1 << len(clique)), [clique.index(p) for p in positions]
        )
        return entry, offsets[i] + np.arange(entry.size)

    def holder(positions) -> int:
        return next(i for i, c in enumerate(cliques) if set(positions) <= set(c))

    row = 0
    for positions in bunch_positions:
        entry, col = marginal(holder(positions), positions)
        triples.append((row + entry, col, 1.0))
        row += 1 << len(positions)
    pair_rows = slice(row, row + len(pair_positions))
    for u, v in pair_positions:
        entry, col = marginal(holder((u, v)), (u, v))
        equal = col[(entry == 0) | (entry == 3)]  # both -1 or both +1
        triples.append((np.full(equal.size, row), equal, 1.0))
        row += 1
    entry, col = marginal(0, ())
    triples.append((row + entry, col, 1.0))
    elastic_rows = row = row + 1

    separator_labels: list[str] = []
    glue = []
    for parent, child in tree:
        sep = _separator(cliques, (parent, child))
        edge = []
        for i, sign in ((parent, 1.0), (child, -1.0)):
            entry, col = marginal(i, sep)
            triples.append((row + entry, col, sign))
            edge += (int(offsets[i]), tuple(entry.tolist()))
        glue.append((*edge, 1 << len(sep)))
        row += 1 << len(sep)
        separator_labels.extend(
            f"separator[{parent}-{child}][{s}]" for s in range(1 << len(sep))
        )
    rows = np.concatenate([r for r, _, _ in triples])
    cols = np.concatenate([c for _, c, _ in triples])
    values = np.concatenate([np.full(c.size, v) for _, c, v in triples])

    # The CNT1 LP: the pair rows become the cost, and the rows after them
    # move up to close the gap.
    n = int(offsets[-1])
    is_pair = (rows >= pair_rows.start) & (rows < pair_rows.stop)
    cost = -np.bincount(cols[is_pair], minlength=n).astype(np.float64)
    keep = ~is_pair
    lp_rows = np.where(rows < pair_rows.start, rows, rows - len(pair_positions))[keep]
    order = np.lexsort((lp_rows, cols[keep]))
    lp_cols = cols[keep][order]
    elastic = rows < elastic_rows
    return _Shape(
        bunch_positions=bunch_positions,
        pair_positions=pair_positions,
        cliques=tuple(cliques),
        tree=tuple(tree),
        elastic_rows=elastic_rows,
        pair_rows=pair_rows,
        separator_labels=tuple(separator_labels),
        entries=(rows, cols, values),
        offsets=tuple(offsets.tolist()),
        glue=tuple(glue),
        elastic_entries=(rows[elastic], cols[elastic]),
        lp_start=tuple(np.searchsorted(lp_cols, np.arange(n + 1)).tolist()),
        lp_index=tuple(lp_rows[order].tolist()),
        lp_value=tuple(values[keep][order].tolist()),
        lp_cost=tuple(cost.tolist()),
        lp_lower=(0.0,) * n,
        lp_upper=(math.inf,) * n,
        uniform_rhs=tuple(
            0.5 ** len(positions)
            for positions in bunch_positions
            for _ in range(1 << len(positions))
        ) + (1.0,) + (0.0,) * len(separator_labels),
    )


def _clique_problem(marg: _Marginals) -> FeasibilityProblem:
    """The clique-tree LP for the given marginal constraints: the cached
    shape with this system's right-hand side."""
    shape = _shape(
        len(marg.variables),
        tuple(positions for positions, _ in marg.bunches),
        tuple((u, v) for u, v, _ in marg.pairs),
    )
    rhs = [p for _, probs in marg.bunches for p in probs]
    rhs += [target for _, _, target in marg.pairs]
    rhs.append(1.0)
    rhs += [0.0] * len(shape.separator_labels)
    return FeasibilityProblem(marg.variables, shape, np.array(rhs, dtype=np.float64))


def build_feasibility_problem(
    system: System, constraint: CouplingConstraint
) -> FeasibilityProblem:
    """Assemble the clique-tree LP deciding C-coupling existence.

    Requires connections of at most two members each and at most M_MAX
    variables in all (a System is valid by construction).
    """
    return _clique_problem(_marginals(system, constraint))


@dataclass(frozen=True)
class _Solve:
    """One HiGHS run on the CNT1 LP: the degree, the clique tables x*
    attaining it, and how the run ended.  ``iterations`` counts this run's
    simplex iterations from the start basis only, not those of the solve
    that first made a shape's start basis."""

    degree: float
    x: np.ndarray
    status: str
    iterations: int


#: The HiGHS bindings scipy ships, as one pybind11 extension module.
_HIGHSPY = "scipy.optimize._highspy._core"

_highspy_lock = threading.Lock()


def _highspy():
    """The HiGHS bindings module, loaded on first use without importing
    ``scipy`` or ``scipy.optimize``.

    A module already in ``sys.modules`` (loaded earlier, or by an
    ``import scipy.optimize``) is returned as it is, so everyone shares one.
    Otherwise the extension is found in scipy's package directory, registered
    under its full name and run; a later ``import scipy.optimize`` then finds
    it there.  The check and the load share one lock, so threads that solve
    at once load it once.  Raises SolverError when it cannot be loaded.
    """
    with _highspy_lock:
        module = sys.modules.get(_HIGHSPY)
        if module is not None:
            return module
        scipy = importlib.util.find_spec("scipy")
        roots = (scipy and scipy.submodule_search_locations) or ()
        paths = [os.path.join(root, "optimize", "_highspy") for root in roots]
        spec = importlib.machinery.PathFinder.find_spec(_HIGHSPY, paths)
        if spec is None:
            looked = " or ".join(os.path.join(path, "_core.*") for path in paths)
            raise SolverError(
                "HiGHS bindings not found: "
                + (f"no {looked}" if paths else "scipy is not installed")
                + "; cbdsys needs scipy>=1.17"
            )
        try:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_HIGHSPY] = module
            spec.loader.exec_module(module)
        except ImportError as exc:
            sys.modules.pop(_HIGHSPY, None)
            raise SolverError(
                f"HiGHS bindings failed to load from {spec.origin}: {exc};"
                " cbdsys needs scipy>=1.17"
            ) from exc
        return module


_local = threading.local()


def _solver():
    """This thread's HiGHS instance, made on its first solve with the CNT1
    options: no presolve, dual simplex, no output, TIGHT_TOL primal and dual
    feasibility tolerances.  Making it also keeps the optimal model status
    for :func:`_run`, so a solve never goes through :func:`_highspy`'s lock.

    Threads never share an instance, so systems are decided concurrently
    without locks.  Each solve hands the instance a new model (a copy of
    this thread's HighsLp of the shape, :func:`_cnt1_lp`) and then its
    shape's start basis (:attr:`_Shape.start_basis`), so it starts from
    that basis, never from an earlier system's.
    """
    highs = getattr(_local, "highs", None)
    if highs is None:
        highspy = _highspy()
        options = highspy.HighsOptions()
        options.presolve = "off"
        options.simplex_strategy = highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        options.highs_debug_level = highspy.kHighsDebugLevelNone
        options.output_flag = options.log_to_console = False
        options.primal_feasibility_tolerance = TIGHT_TOL
        options.dual_feasibility_tolerance = TIGHT_TOL
        highs = highspy._Highs()
        highs.passOptions(options)
        _local.optimal = highspy.HighsModelStatus.kOptimal
        _local.highs = highs
    return highs


def _cnt1_lp(shape: _Shape, b):
    """This thread's HighsLp of the shape's CNT1 LP, with every row fixed
    to b.

    A thread converts a shape's matrix, costs and column bounds into a
    HighsLp once, on its first solve of that shape, and keeps it while the
    shape lives: the store is keyed weakly on the shape, so a shape that
    the shape cache evicts frees its HighsLps.  A call sets only the row
    bounds.  ``passModel`` copies the HighsLp it is given, so the kept one
    never holds solver state.
    """
    lps = getattr(_local, "lps", None)
    if lps is None:
        lps = _local.lps = weakref.WeakKeyDictionary()
    lp = lps.get(shape)
    if lp is None:
        highspy = _highspy()
        n = len(shape.lp_cost)
        lp = highspy.HighsLp()
        lp.num_col_ = lp.a_matrix_.num_col_ = n
        lp.num_row_ = lp.a_matrix_.num_row_ = len(b)
        lp.a_matrix_.format_ = highspy.MatrixFormat.kColwise
        lp.a_matrix_.start_ = shape.lp_start
        lp.a_matrix_.index_ = shape.lp_index
        lp.a_matrix_.value_ = shape.lp_value
        lp.col_cost_ = shape.lp_cost
        lp.col_lower_ = shape.lp_lower
        lp.col_upper_ = shape.lp_upper
        lps[shape] = lp
    lp.row_lower_ = lp.row_upper_ = b
    return lp


def _run(highs) -> str:
    """Run HiGHS on the model it holds, this thread's instance from
    :func:`_solver`, and return its model status's name; raises SolverError
    naming the status unless it is optimal."""
    highs.run()
    status = highs.getModelStatus()
    name = highs.modelStatusToString(status)
    if status != _local.optimal:
        raise SolverError(f"LP solver failed: HiGHS model status {name!r}")
    return name


def _solve_cnt1(problem: FeasibilityProblem) -> _Solve:
    """Maximize the sum of Pr[pair equal] subject to every bunch entry, the
    total mass and every separator row as equalities, and x >= 0, on this
    thread's HiGHS instance (:func:`_solver`), starting from the shape's
    start basis, never from an earlier system's.

    Per call it converts only the right-hand side: this thread's HighsLp of
    the shape gets new row bounds and goes to ``passModel``, which copies
    it.  Never pass the model as numpy arrays through passModel's other
    overloads; see the module docstring.  Returns the degree, twice (sum of
    pair targets - that maximum) clamped at 0, and the clique tables
    attaining the maximum.
    """
    shape = problem.shape
    rhs, pairs = problem.rhs.tolist(), shape.pair_rows
    basis = shape.start_basis  # on first use, itself a solve on this instance
    highs = _solver()
    highs.passModel(_cnt1_lp(shape, rhs[:pairs.start] + rhs[pairs.stop:]))
    highs.setBasis(basis)
    name = _run(highs)
    deficit = sum(rhs[pairs]) + highs.getObjectiveValue()
    _, iterations = highs.getInfoValue("simplex_iteration_count")
    return _Solve(
        max(0.0, 2.0 * deficit),
        np.array(highs.getSolution().col_value),
        name,
        iterations,
    )


def _witness(
    problem: FeasibilityProblem, x: np.ndarray
) -> tuple[CouplingWitness, np.ndarray]:
    """The witness glued from clique tables x, and each clique's marginal
    of its joint, laid out like x.

    Tiny negative solver entries are clipped to zero first.  Each child's
    table is divided by its own separator marginal, and a separator entry of
    zero mass gets the uniform conditional, so every conditional sums to
    one.  One pass from the root then gives each child's marginal of the
    joint as its parent's marginal on their separator times its conditional.

    Tables are small, so numpy's per-call cost would outweigh its
    arithmetic, and the glue runs in plain floats along the shape's
    ``glue`` plan.  Each separator sum adds its
    entries in table order, as ``np.bincount`` would, so every table and
    marginal is the same to the bit as the same steps in numpy.
    """
    shape = problem.shape
    x = [0.0 if v <= 0.0 else v for v in x.tolist()]  # np.maximum(x, 0.0)
    marginals = list(x)
    factors = x[:shape.offsets[1]]
    sizes = [len(factors)]
    for parent_at, parent_entry, child_at, child_entry, width in shape.glue:
        size = len(child_entry)
        table = x[child_at:child_at + size]
        separator = [0.0] * width
        for value, s in zip(table, child_entry):
            separator[s] += value
        from_parent = [0.0] * width
        for value, s in zip(marginals[parent_at:parent_at + len(parent_entry)], parent_entry):
            from_parent[s] += value
        uniform = width / size
        for i, value, s in zip(range(child_at, child_at + size), table, child_entry):
            den = separator[s]
            conditional = value / den if den > 0.0 else uniform
            factors.append(conditional)
            marginals[i] = from_parent[s] * conditional
        sizes.append(size)
    flat = np.array(factors)
    tables = []
    start = 0
    for size in sizes:
        tables.append(flat[start:start + size])
        start += size
    witness = CouplingWitness(problem.variables, shape.cliques, shape.tree, tuple(tables))
    return witness, np.array(marginals)


def witness_violation(
    system: System, constraint: CouplingConstraint, witness: CouplingWitness
) -> float:
    """Worst absolute defect of a claimed witness, checked by enumerating its
    2**m entries: negative mass, total mass, bunch reproduction error, or
    missed connection-equality target.  This is the independent check of
    any witness; :func:`decide` checks its own per clique."""
    marg = _marginals(system, constraint)
    if witness.variables != marg.variables:
        raise ValueError("witness variable order does not match the system's")
    x = witness.probs
    if x.shape != (1 << len(marg.variables),):
        raise ValueError(
            f"witness has {x.size} entries, expected {1 << len(marg.variables)}"
        )
    index = np.arange(x.size)
    worst = max(0.0, float(-x.min()), abs(float(x.sum()) - 1.0))
    for positions, probs in marg.bunches:
        got = np.bincount(_gather_bits(index, positions), weights=x, minlength=len(probs))
        worst = max(worst, float(np.abs(got - probs).max()))
    for u, v, target in marg.pairs:
        equal = float(x[((index >> u) & 1) == ((index >> v) & 1)].sum())
        worst = max(worst, abs(equal - target))
    return worst


def decide(system: System, constraint: CouplingConstraint) -> FeasibilityVerdict:
    """Decide C-coupling existence, with a witness checked per clique when
    feasible.

    One CNT1 solve gives the degree of contextuality; the system is
    feasible iff it is at most EPS_FEAS, and feasible verdicts with a
    degree above TIGHT_TOL are flagged ``boundary``.
    """
    marg = _marginals(system, constraint)
    problem = _clique_problem(marg)
    solve = _solve_cnt1(problem)
    feasible = solve.degree <= EPS_FEAS
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "decide: m=%d, %d cliques, CNT1 LP %d x %d, %s after %d simplex"
            " iterations, degree %.3g -> %s",
            problem.num_variables, len(problem.cliques),
            len(problem.rhs) - len(marg.pairs),
            len(problem.shape.lp_cost), solve.status, solve.iterations,
            solve.degree, "feasible" if feasible else "infeasible",
        )
    if not feasible:
        return FeasibilityVerdict(
            feasible=False, witness=None,
            max_constraint_violation=solve.degree, degree=solve.degree,
        )
    witness, marginals = _witness(problem, solve.x)
    rows, cols = problem.shape.elastic_entries
    k = problem.elastic_rows
    violation = float(
        np.abs(np.bincount(rows, weights=marginals[cols], minlength=k) - problem.rhs[:k]).max()
    )
    if violation > EPS_FEAS:
        raise SolverError(
            f"solver returned an invalid witness (violation {violation:g})"
        )
    return FeasibilityVerdict(
        feasible=True,
        witness=witness,
        max_constraint_violation=violation,
        boundary=solve.degree > TIGHT_TOL,
        degree=solve.degree,
    )
