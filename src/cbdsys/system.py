"""Context-content systems of binary (+1/-1) random variables.

A *content* is a measured property (a question asked, a slit's state); a
*context* is the full set of conditions a measurement is made under, which
here means the set of contents measured jointly.  One random variable exists
per (content, context) incidence.  Variables sharing a context are jointly
distributed, and they form that context's :class:`Bunch`, the one record a
:class:`System` keeps per context.  Variables sharing a content across
contexts (a :class:`Connection`) have no joint distribution at all, only
marginals that can be compared.  A :class:`CouplingConstraint` names what a
coupling demands of those comparisons; the closed-form criteria and the
coupling engine share it.

A System is validated when it is built: an invalid one raises
ValidationError, so every System that exists is valid.  Being immutable, it
works out its derived views on first use and keeps them: each bunch its
contents' Pr[+1] (:attr:`Bunch.plus_probs`), the system its connections
(:attr:`System.connections`) and its cyclic layout
(:attr:`System.cyclic_layout`).  Every reader shares those, so a system's
marginals, connections and cycle are each computed once.

Encoding conventions, fixed for deterministic serialization:

* outcomes are +1 ("Yes") and -1 ("No");
* a bunch over k contents stores a dense probability vector of length 2**k,
  where bit position j (least significant = first content of the context)
  is 1 for +1 and 0 for -1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import ContentNotInContextError, ValidationError

#: Probability bookkeeping tolerance: validation slack and renormalization window.
EPS_PROB = 1e-9

#: Verdict tolerance shared by the closed-form criteria and the coupling engine.
#: Looser than EPS_PROB because LP cross-checks accumulate solver error.
EPS_FEAS = 1e-7

#: The two outcome values.  "Yes" answers and detections encode as +1, "No"
#: as -1; every other outcome set is rejected at parse time.
YES = 1
NO = -1


class _kept:
    """A view computed from an immutable instance on its first read and
    stored in the instance's ``__dict__``, where later reads find it without
    calling here.

    This is functools.cached_property without the lock that Python 3.11
    takes around every first read, which costs about as much as a
    two-content bunch's marginals.  Threads that read a view at once may
    each compute it; they store equal values.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def _clean_probs(probs: Iterable[float]) -> tuple[float, ...]:
    """Absorb float dust on load: clamp entries in [-EPS_PROB, 0) to zero and
    renormalize when the total is off one by more than 2**-51 (two ulps
    above one) and at most EPS_PROB.  Dividing by the total often leaves it
    an ulp off again, so renormalizing closer totals would move the last
    bits on every load, and a file would not round-trip byte for byte.
    Larger defects and entries outside [0, 1 + EPS_PROB] (NaN, infinities,
    huge values that would overflow the sum) are left untouched for
    validate_system to report."""
    vals = []
    for v in probs:
        v = float(v) + 0.0  # also folds -0.0 to 0.0
        if -EPS_PROB <= v < 0.0:
            v = 0.0
        vals.append(v)
    if not all(0.0 <= v <= 1.0 + EPS_PROB for v in vals):
        return tuple(vals)
    total = math.fsum(vals)
    if 2.0 ** -51 < abs(total - 1.0) <= EPS_PROB:
        vals = [v / total for v in vals]
    return tuple(vals)


@dataclass(frozen=True)
class Content:
    """A measured property, identified by a unique id."""

    id: str
    label: str = ""


@dataclass(frozen=True)
class Context:
    """A measurement condition: the ordered list of contents measured jointly.

    A read-only view of a bunch's id and contents (see System.contexts).
    """

    id: str
    contents: tuple[str, ...]


@dataclass(frozen=True)
class Bunch:
    """One context and the joint distribution of all variables sharing it.

    ``context`` is the context's id and ``contents`` its ordered content
    list, which fixes the bit order of ``probs``.
    """

    context: str
    contents: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))
        object.__setattr__(self, "probs", _clean_probs(self.probs))

    @_kept
    def plus_probs(self) -> tuple[float, ...]:
        """Pr[+1] of each content, in content order, computed on first use
        and kept; each is the same ``fsum`` as :func:`marginal`."""
        return tuple(_plus_probability(self.probs, j) for j in range(len(self.contents)))

    def bit(self, content: str) -> int:
        """Bit position of ``content`` in this bunch's assignment index."""
        try:
            return self.contents.index(content)
        except ValueError:
            raise ContentNotInContextError(
                f"content {content!r} is not measured in context {self.context!r}"
            ) from None


@dataclass(frozen=True)
class System:
    """A context-content system: its contents and one bunch per context.

    Building one runs require_valid, so an invalid system raises
    ValidationError, listing every violation, and never exists.
    """

    contents: tuple[Content, ...]
    bunches: tuple[Bunch, ...]

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))
        object.__setattr__(self, "bunches", tuple(self.bunches))
        require_valid(self)

    @cached_property
    def contexts(self) -> tuple[Context, ...]:
        """The contexts, in declaration order, as (id, contents) views."""
        return tuple(Context(b.context, b.contents) for b in self.bunches)

    @_kept
    def connections(self) -> tuple[Connection, ...]:
        """One Connection per declared content, built on first use and kept
        (see :func:`connections`)."""
        return _build_connections(self)

    @_kept
    def cyclic_layout(self) -> CyclicLayout | None:
        """The canonical layout of a cyclic system of any rank, found on
        first use and kept; None for every other system: contexts with other
        than two contents, contents in other than two contexts, or multiple
        disjoint cycles."""
        return _find_cycle(self)

    def bunch(self, context_id: str) -> Bunch:
        for b in self.bunches:
            if b.context == context_id:
                return b
        raise KeyError(context_id)


@dataclass(frozen=True)
class Connection:
    """All variables measuring one content, with their per-context marginals.

    ``members`` lists (context id, Pr[+1]) for every context holding the
    content, in context-declaration order.
    """

    content: str
    members: tuple[tuple[str, float], ...]


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
class ConsistencyReport:
    """Whether every connection's members are identically distributed."""

    consistently_connected: bool
    max_marginal_gap: float


class CouplingConstraint(enum.Enum):
    """The property demanded of each within-connection pair of the coupling."""

    EQUAL_ALWAYS = "equal-always"
    MAX_EQUALITY = "max-equality"

    def target(self, a: float, b: float) -> float:
        """Required Pr[pair equal] given the pair's Pr[+1] marginals."""
        if self is CouplingConstraint.EQUAL_ALWAYS:
            return 1.0
        return max_equality_probability(a, b)


def max_equality_probability(a: float, b: float) -> float:
    """Largest Pr[X = Y] over all couplings of two +1/-1 variables with
    Pr[X=+1] = a and Pr[Y=+1] = b.

    The optimal coupling matches as much mass as possible on each outcome,
    giving min(a, b) + min(1-a, 1-b) = 1 - |a - b|; the formula holds at the
    degenerate extremes too.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"marginals must lie in [0, 1], got a={a!r}, b={b!r}")
    return min(a, b) + min(1.0 - a, 1.0 - b)


def build_system(
    contents: Sequence[str | tuple[str, str] | Content],
    tables: Sequence[tuple[str, Sequence[str], Sequence[float]]],
) -> System:
    """Assemble a System from content ids (or (id, label) pairs) and per-context
    tables of (context id, ordered content ids, dense probability vector)."""
    content_objs = []
    for c in contents:
        if isinstance(c, Content):
            content_objs.append(c)
        elif isinstance(c, str):
            content_objs.append(Content(c))
        else:
            content_objs.append(Content(*c))
    bunches = tuple(
        Bunch(cid, tuple(members), tuple(probs)) for cid, members, probs in tables
    )
    return System(tuple(content_objs), bunches)


def validate_system(system: System) -> list[str]:
    """Return every violated invariant of ``system`` (empty list = valid).

    Violations are data, not failures: non-finite or negative probabilities,
    bunch sums off by more than EPS_PROB, dangling or duplicate ids, and
    vectors of the wrong length are all collected rather than raised.
    """
    violations: list[str] = []

    if not system.bunches:
        violations.append("system declares no contexts")

    for kind, ids in (
        ("content", [c.id for c in system.contents]),
        ("context", [b.context for b in system.bunches]),
    ):
        seen: set[str] = set()
        for cid in ids:
            if cid in seen:
                violations.append(f"duplicate {kind} id {cid!r}")
            seen.add(cid)

    known = {c.id for c in system.contents}
    for bunch in system.bunches:
        if not bunch.contents:
            violations.append(f"context {bunch.context!r} holds no contents")
        if len(set(bunch.contents)) != len(bunch.contents):
            violations.append(f"context {bunch.context!r} lists a content twice")
        for q in bunch.contents:
            if q not in known:
                violations.append(
                    f"context {bunch.context!r} references undeclared content {q!r}"
                )

    for bunch in system.bunches:
        violations += bunch_violations(bunch)

    return violations


def bunch_violations(bunch: Bunch) -> list[str]:
    """Every way ``bunch`` fails to be a distribution (empty list = it is
    one): a vector of other than 2**k entries for k contents, an entry that
    is not finite, is negative or exceeds 1, or a sum off one by more than
    EPS_PROB."""
    where = f"bunch for context {bunch.context!r}"
    expected = 1 << len(bunch.contents)
    if len(bunch.probs) != expected:
        return [f"{where} has {len(bunch.probs)} entries, expected {expected}"]
    # Entry checks come before the sum check.  NaN passes every range
    # comparison and makes the sum NaN, and huge finite entries overflow
    # fsum, so an entry defect is reported on its own and leaves the sum
    # unchecked.
    violations = []
    for i, v in enumerate(bunch.probs):
        if not math.isfinite(v):
            violations.append(f"{where} entry {i} is not a finite number ({v!r})")
        elif v < -EPS_PROB:
            violations.append(f"{where} entry {i} is negative ({v!r})")
        elif v > 1.0 + EPS_PROB:
            violations.append(f"{where} entry {i} exceeds 1 ({v!r})")
    if violations:
        return violations
    total = math.fsum(bunch.probs)
    if abs(total - 1.0) > EPS_PROB:
        return [f"{where} sums to {total!r}, not 1"]
    return []


def require_valid(system: System) -> None:
    """Raise ValidationError unless ``system`` passes validate_system.

    System.__post_init__ calls it, so every built System has passed it.
    """
    violations = validate_system(system)
    if violations:
        raise ValidationError(violations)


def _plus_probability(probs: tuple[float, ...], bit: int) -> float:
    """Sum of the entries whose assignment index has ``bit`` set, at most 1:
    a bunch that loads a few ulps over one keeps its sum (see _clean_probs),
    and a content holding all of its mass is +1 with probability 1."""
    return min(1.0, math.fsum(p for i, p in enumerate(probs) if (i >> bit) & 1))


def marginal(bunch: Bunch, content: str) -> float:
    """Pr[content = +1] under the bunch's joint distribution."""
    return _plus_probability(bunch.probs, bunch.bit(content))


def expectation(bunch: Bunch, content: str) -> float:
    """Expected value of the +1/-1 variable: 2*Pr[+1] - 1."""
    return 2.0 * marginal(bunch, content) - 1.0


def product_expectation(bunch: Bunch, a: str, b: str) -> float:
    """Expected product of two +1/-1 variables in one context.

    Equals Pr[values equal] - Pr[values unequal].
    """
    if a == b:
        raise ValueError(f"product expectation needs two distinct contents, got {a!r} twice")
    u, v = bunch.bit(a), bunch.bit(b)
    return math.fsum(
        p if ((i >> u) & 1) == ((i >> v) & 1) else -p
        for i, p in enumerate(bunch.probs)
    )


def connections(system: System) -> tuple[Connection, ...]:
    """One Connection per declared content, members in context-declaration
    order: the system's kept :attr:`System.connections`."""
    return system.connections


def _build_connections(system: System) -> tuple[Connection, ...]:
    """One pass over the bunches lists each content's holders with their
    kept Pr[+1], so the work is linear in the number of variables."""
    holders: dict[str, list[tuple[str, float]]] = {c.id: [] for c in system.contents}
    for b in system.bunches:
        for q, p in zip(b.contents, b.plus_probs):
            holders[q].append((b.context, p))
    return tuple(Connection(q, tuple(members)) for q, members in holders.items())


def consistency(system: System) -> ConsistencyReport:
    """Largest within-connection marginal gap, and whether it is negligible."""
    gap = 0.0
    for conn in system.connections:
        if len(conn.members) < 2:
            continue
        values = [m for _, m in conn.members]
        gap = max(gap, max(values) - min(values))
    return ConsistencyReport(consistently_connected=gap <= EPS_PROB, max_marginal_gap=gap)


def _find_cycle(system: System) -> CyclicLayout | None:
    """:attr:`System.cyclic_layout`, found by one walk around the cycle."""
    if any(len(b.contents) != 2 for b in system.bunches):
        return None
    if any(len(conn.members) != 2 for conn in system.connections):
        return None
    holders = {conn.content: [ctx for ctx, _ in conn.members] for conn in system.connections}

    # Every context holds two contents and every content sits in two
    # contexts, so there are as many contexts as contents.
    rank = len(system.bunches)
    other_content = {
        b.context: {b.contents[0]: b.contents[1], b.contents[1]: b.contents[0]}
        for b in system.bunches
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
        prev = holders[q][0] if holders[q][1] == cur else holders[q][1]
        order.append((q, (prev, cur)))
        q = other_content[cur][q]
        cur = holders[q][0] if holders[q][1] == cur else holders[q][1]

    # The walk must close into a single cycle covering every content.
    if q != start or len({entry[0] for entry in order}) != rank:
        return None
    return CyclicLayout(rank=rank, order=tuple(order))
