"""Context-content systems of binary (+1/-1) random variables.

A *content* is a measured property (a question asked, a slit's state); a
*context* is the full set of conditions a measurement is made under, which
here means the set of contents measured jointly.  One random variable exists
per (content, context) incidence.  Variables sharing a context are jointly
distributed (a :class:`Bunch`); variables sharing a content across contexts
(a :class:`Connection`) have no joint distribution at all, only marginals
that can be compared.  A :class:`CouplingConstraint` names what a coupling
demands of those comparisons; the closed-form criteria and the coupling
engine share it.

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
from typing import Iterable, Sequence

from .errors import ContentNotInContextError

#: Probability bookkeeping tolerance: validation slack and renormalization window.
EPS_PROB = 1e-9

#: Verdict tolerance shared by the closed-form criteria and the coupling engine.
#: Looser than EPS_PROB because LP cross-checks accumulate solver error.
EPS_FEAS = 1e-7

#: The two outcome values.  "Yes" answers and detections encode as +1, "No"
#: as -1; every other outcome set is rejected at parse time.
YES = 1
NO = -1


def _clean_probs(probs: Iterable[float]) -> tuple[float, ...]:
    """Absorb float dust on load: clamp entries in [-EPS_PROB, 0) to zero and
    renormalize when the total is within EPS_PROB of one.  Larger defects and
    entries outside [0, 1 + EPS_PROB] (NaN, infinities, huge values that
    would overflow the sum) are left untouched for validate_system to
    report."""
    vals = []
    for v in probs:
        v = float(v) + 0.0  # also folds -0.0 to 0.0
        if -EPS_PROB <= v < 0.0:
            v = 0.0
        vals.append(v)
    if not all(0.0 <= v <= 1.0 + EPS_PROB for v in vals):
        return tuple(vals)
    total = math.fsum(vals)
    if total > 0.0 and total != 1.0 and abs(total - 1.0) <= EPS_PROB:
        vals = [v / total for v in vals]
    return tuple(vals)


@dataclass(frozen=True)
class Content:
    """A measured property, identified by a unique id."""

    id: str
    label: str = ""


@dataclass(frozen=True)
class Context:
    """A measurement condition: the ordered list of contents measured jointly."""

    id: str
    contents: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))


@dataclass(frozen=True)
class Bunch:
    """Joint distribution of all variables sharing one context.

    ``contents`` repeats the owning context's ordered content list so a bunch
    is self-describing; validate_system checks the two stay coherent.
    """

    context: str
    contents: tuple[str, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))
        object.__setattr__(self, "probs", _clean_probs(self.probs))

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
    """A context-content system: contents, contexts, and one bunch per context."""

    contents: tuple[Content, ...]
    contexts: tuple[Context, ...]
    bunches: tuple[Bunch, ...]

    def __post_init__(self):
        object.__setattr__(self, "contents", tuple(self.contents))
        object.__setattr__(self, "contexts", tuple(self.contexts))
        object.__setattr__(self, "bunches", tuple(self.bunches))

    def bunch(self, context_id: str) -> Bunch:
        for b in self.bunches:
            if b.context == context_id:
                return b
        raise KeyError(context_id)

    def content_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.contents)


@dataclass(frozen=True)
class Connection:
    """All variables measuring one content, with their per-context marginals.

    ``members`` lists (context id, Pr[+1]) for every context holding the
    content, in context-declaration order.
    """

    content: str
    members: tuple[tuple[str, float], ...]


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
    contexts = tuple(Context(cid, tuple(members)) for cid, members, _ in tables)
    bunches = tuple(
        Bunch(cid, tuple(members), tuple(probs)) for cid, members, probs in tables
    )
    return System(tuple(content_objs), contexts, bunches)


def validate_system(system: System) -> list[str]:
    """Return every violated invariant of ``system`` (empty list = valid).

    Violations are data, not failures: non-finite or negative probabilities,
    bunch sums off by more than EPS_PROB, dangling ids, and structural
    mismatches are all collected rather than raised.
    """
    violations: list[str] = []

    if not system.contexts:
        violations.append("system declares no contexts")

    declared = [c.id for c in system.contents]
    seen: set[str] = set()
    for cid in declared:
        if cid in seen:
            violations.append(f"duplicate content id {cid!r}")
        seen.add(cid)

    ctx_ids = [c.id for c in system.contexts]
    seen = set()
    for cid in ctx_ids:
        if cid in seen:
            violations.append(f"duplicate context id {cid!r}")
        seen.add(cid)

    known = set(declared)
    for ctx in system.contexts:
        if not ctx.contents:
            violations.append(f"context {ctx.id!r} holds no contents")
        if len(set(ctx.contents)) != len(ctx.contents):
            violations.append(f"context {ctx.id!r} lists a content twice")
        for q in ctx.contents:
            if q not in known:
                violations.append(
                    f"context {ctx.id!r} references undeclared content {q!r}"
                )

    by_context: dict[str, Bunch] = {}
    declared_contexts = set(ctx_ids)
    for bunch in system.bunches:
        if bunch.context in by_context:
            violations.append(f"more than one bunch for context {bunch.context!r}")
        by_context[bunch.context] = bunch
        if bunch.context not in declared_contexts:
            violations.append(
                f"bunch references undeclared context {bunch.context!r}"
            )
    for ctx in system.contexts:
        bunch = by_context.get(ctx.id)
        if bunch is None:
            violations.append(f"context {ctx.id!r} has no bunch")
            continue
        if bunch.contents != ctx.contents:
            violations.append(
                f"bunch for context {ctx.id!r} lists contents {list(bunch.contents)}"
                f" but the context declares {list(ctx.contents)}"
            )
        expected = 1 << len(ctx.contents)
        if len(bunch.probs) != expected:
            violations.append(
                f"bunch for context {ctx.id!r} has {len(bunch.probs)} entries,"
                f" expected {expected}"
            )
            continue
        # Entry checks come before the sum check.  NaN passes every range
        # comparison and makes the sum NaN, and huge finite entries overflow
        # fsum, so an entry defect is reported on its own and leaves the sum
        # unchecked.
        entry_defects = len(violations)
        for i, v in enumerate(bunch.probs):
            if not math.isfinite(v):
                violations.append(
                    f"bunch for context {ctx.id!r} entry {i} is not a finite number ({v!r})"
                )
            elif v < -EPS_PROB:
                violations.append(
                    f"bunch for context {ctx.id!r} entry {i} is negative ({v!r})"
                )
            elif v > 1.0 + EPS_PROB:
                violations.append(
                    f"bunch for context {ctx.id!r} entry {i} exceeds 1 ({v!r})"
                )
        if len(violations) > entry_defects:
            continue
        total = math.fsum(bunch.probs)
        if abs(total - 1.0) > EPS_PROB:
            violations.append(
                f"bunch for context {ctx.id!r} sums to {total!r}, not 1"
            )

    return violations


def require_valid(system: System) -> None:
    """Raise ValidationError unless ``system`` passes validate_system."""
    from .errors import ValidationError

    violations = validate_system(system)
    if violations:
        raise ValidationError(violations)


def marginal(bunch: Bunch, content: str) -> float:
    """Pr[content = +1] under the bunch's joint distribution."""
    bit = bunch.bit(content)
    return math.fsum(p for i, p in enumerate(bunch.probs) if (i >> bit) & 1)


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


def connections(system: System) -> list[Connection]:
    """One Connection per declared content, members in context-declaration order."""
    # Each context's first bunch, the one System.bunch finds.
    bunches = {bunch.context: bunch for bunch in reversed(system.bunches)}
    out = []
    for content in system.contents:
        members = tuple(
            (ctx.id, marginal(bunches[ctx.id], content.id))
            for ctx in system.contexts
            if content.id in ctx.contents
        )
        out.append(Connection(content.id, members))
    return out


def consistency(system: System) -> ConsistencyReport:
    """Largest within-connection marginal gap, and whether it is negligible."""
    gap = 0.0
    for conn in connections(system):
        if len(conn.members) < 2:
            continue
        values = [m for _, m in conn.members]
        gap = max(gap, max(values) - min(values))
    return ConsistencyReport(consistently_connected=gap <= EPS_PROB, max_marginal_gap=gap)
