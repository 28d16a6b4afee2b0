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
  unknowns), reads every bunch row and every pair's Pr[equal] off a clique
  holding its variables, and makes neighbouring cliques agree on their
  separators.

On a clique tree, locally consistent tables always extend to a global joint
(Vorob'ev 1962; Abramsky & Brandenburger, NJP 13, 2011), so the LP's optimum
is exactly the optimum over all 2**m joint assignments.

The LP's rows are, in this one order, every bunch entry and every separator
entry, each a hard equality, and the connection pairs enter only the
objective: :func:`decide` maximizes the sum of Pr[pair equal] over all
couplings of the bunches, the CNT1 LP of Kujala & Dzhafarov, "Measures of
contextuality and non-contextuality", Phil. Trans. R. Soc. A 377 (2019).
A total-mass row would be implied by these: the first bunch's rows sum to
the mass of the clique holding it, and the separator rows give every clique
of the tree (across components too) the same mass, so the LP has none.
The deficit is the sum of the pairs' targets minus that maximum, and the
*degree* of contextuality is twice the deficit (clamped at 0): for cyclic
systems it equals the criterion excess s_odd - (n - 2) - sum of gaps in
expectation units (Dzhafarov, Kujala & Cervantes, PRA 101, 042119, 2020), so
both routes compare one number with EPS_FEAS.  The LP always has a solution,
since the product of the bunches is a coupling.  When the context graph
(contexts as nodes, connection pairs as edges) is a forest, the
triangulation adds no fill edge, every clique is one bunch or one pair, and
the optimum is known: every pair at its maximal coupling, glued along the
tree.  :func:`decide` then writes those tables down and solves nothing.
Otherwise one HiGHS run decides it: called directly through the bindings
scipy ships (``scipy.optimize._highspy._core``), dual simplex without
presolve at TIGHT_TOL tolerances, on one instance per thread.  Each solve
starts from its shape's start basis, never from an earlier system's (see
below), so a result does not depend on what was solved before or on which
thread solves it.  When the degree is at
most EPS_FEAS the witness stays in clique-tree form: the root's table, then
each child's table conditioned on its separator.  Their product is the glued
joint.  One top-down pass over the tree gives every clique's marginal of
that joint, and the witness is checked per clique against every bunch entry,
the total mass and every pair's target, in work bounded by the clique-table
sizes, not by 2**m.  The dense 2**m joint, a read-only float64 array, is
built only when :attr:`CouplingWitness.probs` is first read;
:func:`witness_violation` still checks any claimed witness by enumerating
it.  M_MAX bounds the size of that dense joint.

Only the right-hand side and the row names depend on a system's
probabilities and ids.  The triangulation, clique tree and HiGHS column
arrays and costs depend only on its *shape* (variable count, bunch positions,
connection-pair positions), so they are built once per shape and kept in a
bounded cache: a sweep over one scenario builds its LP once.  So is the
shape's start basis: an optimal basis of its CNT1 LP with every bunch
uniform, found by one solve on first use.  Since only the right-hand side
varies within a shape, that basis is dual feasible for every system of the
shape, and dual simplex started from it only repairs primal
infeasibilities.  A decide whose shape is not cached pays the start-basis
solve as well as its own, so a run of one-off shapes is slower than it
would be from the slack basis: about 630 against 530 us per decide for 40
shapes of up to 12 variables decided in turn past the cache (2-core box).
A forest shape never makes a start basis or loads HiGHS, so no large
context alone pays a cold solve: the first decide of one 16-content
context takes about 0.2 s, three quarters of it the bunch's Pr[+1] sums,
against 2.1 s with the LP.  A large context inside a cycle still pays it.

A :func:`decide` on a cached shape pays only for what depends on the
system.  :func:`_lp_input` numbers the variables once and lists the bunch
entries and the pair targets, read off the system's kept connections.  The
bunch entries and separators 0 become the row bounds of the shape's
HighsLp, which each thread keeps, and ``passModel``, ``setBasis`` and
``run`` follow.  The degree needs only the objective value, so only a
feasible verdict reads the solution back, as the list HiGHS returns, and
glues the witness from it.  A decide builds no FeasibilityProblem:
:func:`build_feasibility_problem` returns the same LP, with the same rows
and right-hand side, for inspection.  A decide formats a row name or the
model status only for an error or the debug record.  The witness glue runs
in plain floats along a per-shape plan, in the order numpy would
add, so its tables are the same to the bit.  Hand HiGHS the model as a
HighsLp only: passModel's overloads that take numpy arrays returned
"Optimal" after 0 iterations with a primal residual of 0.6 on a 16-variable
cycle of the benchmark's ``large-m``.

Nothing loads this module, or numpy, until a program first needs the LP:
``import cbdsys`` serves this module's names on first access, and the CLI
imports it on its first :func:`decide`, so a CLI run that needs no LP never
pays numpy's import.  CouplingConstraint and max_equality_probability,
which the closed forms share, live in :mod:`cbdsys.system` and are
re-exported here.  The HiGHS bindings load on the first LP solve, and
alone: :func:`_highspy` loads that one extension module out of scipy's
package directory and never imports ``scipy`` or ``scipy.optimize``, whose
import takes several times as long as the rest of a CLI run.
Each :func:`decide` logs one debug record (variable count, cliques, CNT1 LP
rows x columns, HiGHS model status and simplex iteration count, or for a
forest that no LP ran, degree, verdict) on this module's logger.
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
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ConnectionSizeError, SolverError, SystemSizeError
from .system import EPS_FEAS, M_MAX, System, _kept

# The data model defines these, so the closed forms need not load this
# module; they stay importable from here.
from .system import CouplingConstraint, max_equality_probability  # noqa: F401

log = logging.getLogger(__name__)

#: HiGHS primal and dual feasibility tolerance, 100x tighter than EPS_FEAS.
#: A degree above it but at most EPS_FEAS is feasible and flagged "boundary".
TIGHT_TOL = 1e-10

#: Distinct system shapes (variable count, bunch and pair positions) whose
#: clique-tree LP is kept for reuse.
SHAPE_CACHE_SIZE = 32


@dataclass(frozen=True, eq=False)
class _Shape:
    """The part of the CNT1 LP that depends only on where each bunch and
    connection pair sits: everything of a FeasibilityProblem except its
    right-hand side, pair targets and variable names.

    ``bunch_positions`` are the variable positions of each bunch.
    ``cliques`` lists each maximal clique as ascending variable positions;
    the unknowns are the clique tables laid end to end, ``offsets`` holds
    where each starts in the columns (and where the last ends), and bit j of
    an entry of clique C's table carries variable C[j].  ``tree`` lists the
    clique-tree edges as (parent, child), root (clique 0) first.

    The LP's rows are every bunch entry of every bunch, then per tree edge
    its separator rows (no mass row: they imply it).  ``glue`` holds, per
    edge, the offset of the parent's table, the separator entry that each of
    its entries falls in, the same for the child's table, and the
    separator's entry count, with +1 on the parent's entries and -1 on the
    child's.  The witness is glued along it.  The constraint matrix is stored column-wise
    as (lp_start, lp_index, lp_value), in tuples because HiGHS's bindings
    read those fastest; only the row bounds vary per call, and each thread
    converts the rest once per shape (:func:`_cnt1_lp`).  ``lp_cost`` is
    minus the number of connection pairs that each column makes equal (both
    -1 or both +1), so the LP minimizes minus the sum of Pr[pair equal] over
    nonnegative columns.  ``uniform_rhs`` is the right-hand side when every
    bunch is uniform (1/2**k per entry of a k-content bunch) and separators
    0, and ``start_basis``, an optimal basis at that right-hand side, starts
    every solve of this shape.

    ``check_entries`` holds the rows and columns, all 1, of the witness
    check: the bunch rows as in the LP, a mass row over clique 0's table,
    then one row per connection pair, summing its equal columns.

    ``forest`` is None when the triangulation added a fill edge, that is
    when the context graph (contexts as nodes, connection pairs as edges,
    parallel edges a cycle) has a cycle.  Otherwise every clique is one
    bunch or one connection pair, and ``forest`` holds, per clique, the
    first LP row of its bunch's entries, or -1 for a pair: :func:`decide`
    then writes the CNT1 optimum down without solving the LP.
    """

    bunch_positions: tuple[tuple[int, ...], ...]
    cliques: tuple[tuple[int, ...], ...]
    tree: tuple[tuple[int, int], ...]
    offsets: tuple[int, ...]
    check_entries: tuple[np.ndarray, np.ndarray]
    glue: tuple[tuple[int, tuple[int, ...], int, tuple[int, ...], int], ...]
    forest: tuple[int, ...] | None
    lp_start: tuple[int, ...]
    lp_index: tuple[int, ...]
    lp_value: tuple[float, ...]
    lp_cost: tuple[float, ...]
    uniform_rhs: tuple[float, ...]

    @_kept
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

    @_kept
    def matrix(self) -> np.ndarray:
        """The dense constraint matrix, built from the column-wise arrays on
        first use and read-only."""
        n = len(self.lp_cost)
        matrix = np.zeros((len(self.uniform_rhs), n))
        matrix[self.lp_index, np.repeat(np.arange(n), np.diff(self.lp_start))] = self.lp_value
        matrix.flags.writeable = False
        return matrix


@dataclass(frozen=True, eq=False)
class FeasibilityProblem:
    """The CNT1 LP of one system over clique tables x >= 0, as HiGHS gets it.

    ``variables`` fixes the variable positions and the witness's bit
    convention: bit j of a joint assignment (least significant =
    variables[0]) carries variables[j], with bit value 1 meaning +1.

    ``shape`` holds everything that depends only on where each bunch and
    connection pair sits, and is shared by every system of that shape: the
    cliques, the tree, the column-wise matrix and the costs.  ``matrix`` is
    its dense form, built on first read and read-only.  Its rows, and those
    of ``rhs`` and ``row_labels``, are in order: every bunch entry of every
    context, then, per tree edge, the separator rows (right-hand side 0)
    that make its two cliques agree.  They imply total mass one, so no row
    asks for it.  ``targets`` holds each two-member connection's target
    Pr[equal], in the order of the system's connections; the pairs enter
    only the cost.  ``variables``,
    ``rhs`` and ``targets`` are this system's own.  ``row_labels`` names
    every row from the variable names and the shape's tree, and is
    formatted only when first read.
    """

    variables: tuple[tuple[str, str], ...]
    shape: _Shape
    rhs: np.ndarray
    targets: tuple[float, ...]

    @_kept
    def row_labels(self) -> tuple[str, ...]:
        """``bunch[<context>][<entry>]`` and
        ``separator[<parent>-<child>][<entry>]``, row by row."""
        names, shape = self.variables, self.shape
        labels = [
            f"bunch[{names[positions[0]][1]}][{a}]"
            for positions in shape.bunch_positions
            for a in range(1 << len(positions))
        ]
        labels += [
            f"separator[{parent}-{child}][{s}]"
            for (parent, child), edge in zip(shape.tree, shape.glue)
            for s in range(edge[-1])
        ]
        return tuple(labels)

    @property
    def matrix(self) -> np.ndarray:
        return self.shape.matrix


@dataclass(frozen=True, eq=False)
class CouplingWitness:
    """A joint distribution certifying noncontextuality, in clique-tree form.

    ``variables`` is as in FeasibilityProblem, ``cliques`` and ``tree`` as
    in its shape.
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

    @_kept
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


def coupling_variables(system: System) -> tuple[tuple[str, str], ...]:
    """(content, context) pairs in canonical order: contexts as declared,
    contents in context order."""
    return tuple((q, b.context) for b in system.bunches for q in b.contents)


def _lp_input(system: System, constraint: CouplingConstraint):
    """What a coupling must reproduce, by position in
    :func:`coupling_variables`: those variables, each bunch's positions,
    each two-member connection's positions and its target Pr[equal] read off
    the system's kept connections, and every bunch entry in bunch order.

    Raises ConnectionSizeError for a connection of more than two members,
    then SystemSizeError past M_MAX variables.
    """
    variables = coupling_variables(system)
    position = {v: i for i, v in enumerate(variables)}
    bunches = tuple(
        tuple(position[q, b.context] for q in b.contents) for b in system.bunches
    )
    pairs, targets = [], []
    for conn in system.connections:
        if len(conn.members) > 2:
            raise ConnectionSizeError(
                f"content {conn.content!r} appears in {len(conn.members)} contexts;"
                " pairwise coupling constraints support at most 2"
            )
        if len(conn.members) == 2:
            (first, a), (second, b) = conn.members
            pairs.append((position[conn.content, first], position[conn.content, second]))
            targets.append(constraint.target(a, b))
    m = len(variables)
    if m > M_MAX:
        raise SystemSizeError(
            f"coupling over {m} variables needs a 2^{m}-entry witness;"
            f" limit is 2^{M_MAX}"
        )
    entries = [p for b in system.bunches for p in b.probs]
    return variables, bunches, tuple(pairs), targets, entries


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


@lru_cache(maxsize=SHAPE_CACHE_SIZE)
def _shape(
    m: int,
    bunch_positions: tuple[tuple[int, ...], ...],
    pair_positions: tuple[tuple[int, int], ...],
) -> _Shape:
    """Triangulate, build the clique tree and assemble the CNT1 LP's
    nonzeros and costs and the witness check's nonzeros, column by
    clique-table entry, for bunches and connection pairs at the given
    variable positions."""
    edges = [
        edge for positions in bunch_positions for edge in combinations(positions, 2)
    ]
    edges += list(pair_positions)
    cliques = _triangulate(m, edges)
    tree = _clique_tree(cliques)
    offsets = np.cumsum([0] + [1 << len(c) for c in cliques])
    n = int(offsets[-1])

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

    # The CNT1 LP's nonzeros as (rows, columns, value): the bunch rows, then
    # the separator rows.  The witness check's (rows, columns): the same
    # bunch rows, the mass row, then the pair rows.
    triples: list[tuple[np.ndarray, np.ndarray, float]] = []
    check: list[tuple[np.ndarray, np.ndarray]] = []
    row = 0
    first_row = {}
    for positions in bunch_positions:
        entry, col = marginal(holder(positions), positions)
        triples.append((row + entry, col, 1.0))
        check.append((row + entry, col))
        first_row[positions] = row
        row += 1 << len(positions)
    bunch_rows = row
    entry, col = marginal(0, ())
    check.append((row + entry, col))
    equal = []
    for u, v in pair_positions:
        entry, col = marginal(holder((u, v)), (u, v))
        equal.append(col[(entry == 0) | (entry == 3)])  # both -1 or both +1
    check += [(np.full(c.size, r), c) for r, c in enumerate(equal, row + 1)]

    glue = []
    for parent, child in tree:
        sep = tuple(sorted(set(cliques[parent]) & set(cliques[child])))
        edge = []
        for i, sign in ((parent, 1.0), (child, -1.0)):
            entry, col = marginal(i, sep)
            triples.append((row + entry, col, sign))
            edge += (int(offsets[i]), tuple(entry.tolist()))
        glue.append((*edge, 1 << len(sep)))
        row += 1 << len(sep)
    rows = np.concatenate([r for r, _, _ in triples])
    cols = np.concatenate([c for _, c, _ in triples])
    values = np.concatenate([np.full(c.size, v) for _, c, v in triples])
    order = np.lexsort((rows, cols))
    pair_cols = np.concatenate([np.zeros(0, np.int64), *equal])  # empty without pairs
    cost = -np.bincount(pair_cols, minlength=n).astype(np.float64)
    # A fill edge joins two variables that share no bunch and no pair, so
    # the clique holding it is neither; without one, every clique is one.
    pairs = {tuple(sorted(pair)) for pair in pair_positions}
    forest = tuple(first_row.get(c, -1) for c in cliques if c in first_row or c in pairs)
    return _Shape(
        bunch_positions=bunch_positions,
        cliques=tuple(cliques),
        tree=tuple(tree),
        offsets=tuple(offsets.tolist()),
        check_entries=tuple(np.concatenate(part) for part in zip(*check)),
        glue=tuple(glue),
        forest=forest if len(forest) == len(cliques) else None,
        lp_start=tuple(np.searchsorted(cols[order], np.arange(n + 1)).tolist()),
        lp_index=tuple(rows[order].tolist()),
        lp_value=tuple(values[order].tolist()),
        lp_cost=tuple(cost.tolist()),
        uniform_rhs=tuple(
            0.5 ** len(positions)
            for positions in bunch_positions
            for _ in range(1 << len(positions))
        ) + (0.0,) * (row - bunch_rows),
    )


def build_feasibility_problem(
    system: System, constraint: CouplingConstraint
) -> FeasibilityProblem:
    """Assemble the CNT1 LP deciding C-coupling existence, as :func:`decide`
    solves it: the cached shape with this system's right-hand side and pair
    targets.

    Requires connections of at most two members each and at most M_MAX
    variables in all (a System is valid by construction).
    """
    variables, bunches, pairs, targets, entries = _lp_input(system, constraint)
    shape = _shape(len(variables), bunches, pairs)
    rhs = [*entries, *shape.uniform_rhs[len(entries):]]  # then separators 0
    return FeasibilityProblem(variables, shape, np.array(rhs, dtype=np.float64), tuple(targets))


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

    Leave the ``threads`` option automatic.  HiGHS keeps one task scheduler
    for the whole process, and after another instance has run with
    ``threads=2``, a run with ``threads=1`` ends with model status
    "Not Set".  The automatic setting solves after runs with any count.
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
        lp.col_lower_ = (0.0,) * n
        lp.col_upper_ = (math.inf,) * n
        lps[shape] = lp
    lp.row_lower_ = lp.row_upper_ = b
    return lp


def _run(highs) -> None:
    """Run HiGHS on the model it holds, this thread's instance from
    :func:`_solver`; raises SolverError naming the model status unless it
    is optimal."""
    highs.run()
    status = highs.getModelStatus()
    if status != _local.optimal:
        name = highs.modelStatusToString(status)
        raise SolverError(f"LP solver failed: HiGHS model status {name!r}")


def _solve_cnt1(shape: _Shape, b):
    """Maximize the sum of Pr[pair equal] subject to every bunch entry and
    every separator row fixed to the CNT1 row bounds b, and x >= 0, on this
    thread's HiGHS instance (:func:`_solver`), starting from the shape's
    start basis, never from an earlier system's.

    This thread's HighsLp of the shape gets b as its row bounds and goes to
    ``passModel``, which copies it.  Never pass the model as numpy arrays
    through passModel's other overloads; see the module docstring.  Returns
    the instance, which holds the optimum until this thread's next solve.
    """
    basis = shape.start_basis  # on first use, itself a solve on this instance
    highs = _solver()
    highs.passModel(_cnt1_lp(shape, b))
    highs.setBasis(basis)
    _run(highs)
    return highs


def _forest_optimum(shape: _Shape, entries: list[float], plus: list[float]) -> list[float]:
    """The CNT1 optimum of a forest shape as clique tables laid out like
    the LP's columns, from the bunch entries and each variable's Pr[+1].

    A bunch's clique holds that bunch's entries: its positions ascend, so
    its bits are the bunch's.  A pair's clique (u, v) holds their maximal
    coupling (1 - max(a, b), a - min(a, b), b - min(a, b), min(a, b)) for
    Pr[u = +1] = a and Pr[v = +1] = b, equal with probability
    1 - |a - b|, the most any coupling reaches.  Cliques share at most one
    variable, whose Pr[+1] both tables carry, so they agree on every
    separator (to rounding) and glue along the tree (Vorob'ev 1962).
    """
    x: list[float] = []
    for clique, first, start, end in zip(
        shape.cliques, shape.forest, shape.offsets, shape.offsets[1:]
    ):
        if first >= 0:
            x += entries[first:first + end - start]
        else:
            a, b = plus[clique[0]], plus[clique[1]]
            low, high = min(a, b), max(a, b)
            x += (1.0 - high, a - low, b - low, low)
    return x


def _witness(
    shape: _Shape, variables: tuple[tuple[str, str], ...], x: list[float]
) -> tuple[CouplingWitness, np.ndarray]:
    """The witness glued from clique tables x, the shape's columns as HiGHS
    returns them or as :func:`_forest_optimum` writes them, and each
    clique's marginal of its joint, laid out like x.

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
    x = [0.0 if v <= 0.0 else v for v in x]  # np.maximum(x, 0.0)
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
    witness = CouplingWitness(variables, shape.cliques, shape.tree, tuple(tables))
    return witness, np.array(marginals)


def witness_violation(
    system: System, constraint: CouplingConstraint, witness: CouplingWitness
) -> float:
    """Worst absolute defect of a claimed witness, checked by enumerating its
    2**m entries: negative mass, total mass, bunch reproduction error, or
    missed connection-equality target.  This is the independent check of
    any witness; :func:`decide` checks its own per clique."""
    variables, bunches, pairs, targets, _ = _lp_input(system, constraint)
    if witness.variables != variables:
        raise ValueError("witness variable order does not match the system's")
    x = witness.probs
    if x.shape != (1 << len(variables),):
        raise ValueError(
            f"witness has {x.size} entries, expected {1 << len(variables)}"
        )
    index = np.arange(x.size)
    worst = max(0.0, float(-x.min()), abs(float(x.sum()) - 1.0))
    for positions, bunch in zip(bunches, system.bunches):
        got = np.bincount(_gather_bits(index, positions), weights=x, minlength=len(bunch.probs))
        worst = max(worst, float(np.abs(got - bunch.probs).max()))
    for (u, v), target in zip(pairs, targets):
        equal = float(x[((index >> u) & 1) == ((index >> v) & 1)].sum())
        worst = max(worst, abs(equal - target))
    return worst


def decide(system: System, constraint: CouplingConstraint) -> FeasibilityVerdict:
    """Decide C-coupling existence, with a witness checked per clique when
    feasible.

    The CNT1 optimum gives the degree of contextuality: one HiGHS solve,
    or for a forest shape the maximal coupling of every pair
    (:func:`_forest_optimum`).  The system is feasible iff the degree is at
    most EPS_FEAS, and feasible verdicts with a degree above TIGHT_TOL are
    flagged ``boundary``.
    """
    variables, bunches, pairs, targets, entries = _lp_input(system, constraint)
    shape = _shape(len(variables), bunches, pairs)
    if shape.forest is None:
        highs = _solve_cnt1(shape, [*entries, *shape.uniform_rhs[len(entries):]])
        degree = max(0.0, 2.0 * (sum(targets) + highs.getObjectiveValue()))
    else:
        plus = [p for b in system.bunches for p in b.plus_probs]
        degree = max(0.0, 2.0 * sum(
            target - max_equality_probability(plus[u], plus[v])
            for target, (u, v) in zip(targets, pairs)
        ))
    feasible = degree <= EPS_FEAS
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "decide: m=%d, %d cliques, CNT1 LP %d x %d, %s, degree %.3g -> %s",
            len(variables), len(shape.cliques), len(shape.uniform_rhs), len(shape.lp_cost),
            "forest: no LP run" if shape.forest is not None else
            f"{highs.modelStatusToString(highs.getModelStatus())} after"
            f" {highs.getInfoValue('simplex_iteration_count')[1]} simplex iterations",
            degree, "feasible" if feasible else "infeasible",
        )
    if not feasible:
        return FeasibilityVerdict(
            feasible=False, witness=None, max_constraint_violation=degree, degree=degree,
        )
    x = (
        highs.getSolution().col_value if shape.forest is None
        else _forest_optimum(shape, entries, plus)
    )
    witness, marginals = _witness(shape, variables, x)
    rows, cols = shape.check_entries
    want = [*entries, 1.0, *targets]
    got = np.bincount(rows, weights=marginals[cols], minlength=len(want))
    violation = float(np.abs(got - want).max())
    if violation > EPS_FEAS:
        raise SolverError(
            f"solver returned an invalid witness (violation {violation:g})"
        )
    return FeasibilityVerdict(
        feasible=True,
        witness=witness,
        max_constraint_violation=violation,
        boundary=degree > TIGHT_TOL,
        degree=degree,
    )
