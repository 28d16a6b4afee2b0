"""Parametric builders for the bundled case studies.

Three experiment families ship with the library, each returning a plain
System so every analysis path applies to them unchanged:

* a two-slit detection experiment (cyclic rank 4), where the per-slit
  detection variables shift with the other slit's state;
* a question-order experiment (cyclic rank 2), where the same two questions
  are asked in both orders;
* an EPR/Bell-style rank-4 system specified directly by its per-context
  means and correlations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cyclic import CriterionResult
from .errors import MomentError, ParameterError
from .system import EPS_PROB, Bunch, Content, System, build_system

if TYPE_CHECKING:
    import numpy as np

# Double-slit contents: "did the particle reach the detector through this
# slit in this state?"  Left slit first in each id pair.
LEFT_OPEN = "left_open"
RIGHT_OPEN = "right_open"
LEFT_CLOSED = "left_closed"
RIGHT_CLOSED = "right_closed"

# Contexts are named (left state)_(right state).
CTX_OPEN_OPEN = "open_open"
CTX_CLOSED_OPEN = "closed_open"
CTX_CLOSED_CLOSED = "closed_closed"
CTX_OPEN_CLOSED = "open_closed"


@dataclass(frozen=True)
class DoubleSlitParams:
    """Detection probabilities for the two-slit experiment.

    ``p`` (``q``) is the chance of reaching the detector through the open
    left (right) slit while the other slit is closed.  With both slits open,
    ``r_prime`` is the chance of registering through both, and ``p_prime`` /
    ``q_prime`` through the left / right one only.  The detector must be
    small: 1-2p, 1-2q and 1-2(p'+q') all strictly positive.
    """

    p: float
    q: float
    p_prime: float
    q_prime: float
    r_prime: float

    def __post_init__(self):
        problems = []
        for name, value in (
            ("p", self.p),
            ("q", self.q),
            ("p_prime", self.p_prime),
            ("q_prime", self.q_prime),
            ("r_prime", self.r_prime),
        ):
            if not math.isfinite(value):
                problems.append(f"{name} = {value!r} is not a finite number")
            elif value < 0.0:
                problems.append(f"{name} = {value!r} is negative")
        if self.r_prime + self.p_prime + self.q_prime > 1.0:
            problems.append("r_prime + p_prime + q_prime exceeds 1")
        if not 1.0 - 2.0 * self.p > 0.0:
            problems.append(f"smallness violated: 1 - 2p = {1.0 - 2.0 * self.p!r} must be positive")
        if not 1.0 - 2.0 * self.q > 0.0:
            problems.append(f"smallness violated: 1 - 2q = {1.0 - 2.0 * self.q!r} must be positive")
        if not 1.0 - 2.0 * self.p_prime - 2.0 * self.q_prime > 0.0:
            problems.append(
                "smallness violated: 1 - 2p' - 2q' = "
                f"{1.0 - 2.0 * self.p_prime - 2.0 * self.q_prime!r} must be positive"
            )
        if problems:
            raise ParameterError("; ".join(problems))


def build_double_slit(params: DoubleSlitParams) -> System:
    """Construct the rank-4 double-slit system for the given probabilities.

    Each context pairs the two slit-state contents in force; nothing ever
    passes a closed slit, so those variables are -1 with probability one.
    Bit order within each context: first-listed content is the least
    significant bit, +1 is bit value 1.
    """
    p, q = params.p, params.q
    pp, qp, rp = params.p_prime, params.q_prime, params.r_prime
    contents = [
        (LEFT_OPEN, "reached detector through the open left slit"),
        (RIGHT_OPEN, "reached detector through the open right slit"),
        (LEFT_CLOSED, "reached detector through the closed left slit"),
        (RIGHT_CLOSED, "reached detector through the closed right slit"),
    ]
    tables = [
        (CTX_OPEN_OPEN, [LEFT_OPEN, RIGHT_OPEN], [1.0 - rp - pp - qp, pp, qp, rp]),
        (CTX_CLOSED_OPEN, [LEFT_CLOSED, RIGHT_OPEN], [1.0 - q, 0.0, q, 0.0]),
        (CTX_CLOSED_CLOSED, [LEFT_CLOSED, RIGHT_CLOSED], [1.0, 0.0, 0.0, 0.0]),
        (CTX_OPEN_CLOSED, [LEFT_OPEN, RIGHT_CLOSED], [1.0 - p, p, 0.0, 0.0]),
    ]
    return build_system(contents, tables)


def check_double_slit(params: DoubleSlitParams) -> CriterionResult:
    """Rank-4 criterion for the double-slit system, straight from the parameters.

    The four product expectations are 1-2p, 1, 1-2q and 1-2p'-2q', all
    positive under the smallness assumption, so the left side reduces to
    their sum minus twice their minimum; the right side is 2 plus the two
    open-slit connection gaps.  Simple algebra shows lhs <= rhs for every
    admissible parameter set, and the result must agree exactly with
    cbd_cyclic4 on build_double_slit(params).
    """
    p, q = params.p, params.q
    pp, qp, rp = params.p_prime, params.q_prime, params.r_prime
    terms = [1.0 - 2.0 * p, 1.0, 1.0 - 2.0 * q, 1.0 - 2.0 * pp - 2.0 * qp]
    lhs = sum(terms) - 2.0 * min(terms)
    deltas = {
        LEFT_OPEN: 2.0 * abs(p - pp - rp),
        RIGHT_OPEN: 2.0 * abs(q - qp - rp),
        LEFT_CLOSED: 0.0,
        RIGHT_CLOSED: 0.0,
    }
    rhs = 2.0 + deltas[LEFT_OPEN] + deltas[RIGHT_OPEN]
    return CriterionResult.from_sides(lhs, rhs, deltas)


def sample_double_slit_params(rng: np.random.Generator) -> DoubleSlitParams:
    """Draw one admissible parameter set from a seeded generator.

    p and q are uniform below one half; (p', q') is uniform on the triangle
    p' + q' < 1/2 (by rejection) and r' uniform on what the total-mass bound
    leaves, so the full admissible region gets exercised.
    """
    p = rng.uniform(0.0, 0.5)
    q = rng.uniform(0.0, 0.5)
    while True:
        pp = rng.uniform(0.0, 0.5)
        qp = rng.uniform(0.0, 0.5)
        if pp + qp < 0.5:
            break
    rp = rng.uniform(0.0, 1.0 - pp - qp)
    return DoubleSlitParams(p=p, q=q, p_prime=pp, q_prime=qp, r_prime=rp)


@dataclass(frozen=True)
class QuestionOrderParams:
    """Joint response distributions for the two asking orders.

    Both bunches range over the same two question contents in the same
    order; only their context ids (the asking orders) differ.
    """

    joint_ab: Bunch
    joint_ba: Bunch

    def __post_init__(self):
        if len(self.joint_ab.contents) != 2 or len(self.joint_ba.contents) != 2:
            raise ParameterError("question-order bunches must cover exactly two contents")
        if self.joint_ab.contents != self.joint_ba.contents:
            raise ParameterError(
                "both bunches must list the same two contents in the same order"
            )
        if self.joint_ab.context == self.joint_ba.context:
            raise ParameterError("the two asking orders need distinct context ids")
        for bunch in (self.joint_ab, self.joint_ba):
            # The range check comes first: NaN fails it, but would make the
            # sum NaN and pass the sum check, and huge entries overflow fsum.
            if not (
                len(bunch.probs) == 4
                and all(0.0 <= v <= 1.0 + EPS_PROB for v in bunch.probs)
                and abs(math.fsum(bunch.probs) - 1.0) <= EPS_PROB
            ):
                raise ParameterError(
                    f"bunch for context {bunch.context!r} is not a distribution"
                )

    @classmethod
    def from_probs(
        cls,
        first_order: list[float] | tuple[float, ...],
        second_order: list[float] | tuple[float, ...],
        contents: tuple[str, str] = ("A", "B"),
        contexts: tuple[str, str] = ("AB", "BA"),
    ) -> "QuestionOrderParams":
        return cls(
            joint_ab=Bunch(contexts[0], contents, tuple(first_order)),
            joint_ba=Bunch(contexts[1], contents, tuple(second_order)),
        )


def build_question_order(params: QuestionOrderParams) -> System:
    """Rank-2 system for a question pair asked in both orders."""
    qa, qb = params.joint_ab.contents
    return System((Content(qa), Content(qb)), (params.joint_ab, params.joint_ba))


def _bunch_from_moments(ea: float, eb: float, eab: float) -> tuple[float, ...]:
    """2x2 probabilities from two means and the correlation:
    Pr[x, y] = (1 + x*ea + y*eb + x*y*eab) / 4 for x, y in {+1, -1}."""
    probs = []
    for idx in range(4):
        x = 1.0 if idx & 1 else -1.0
        y = 1.0 if idx & 2 else -1.0
        probs.append((1.0 + x * ea + y * eb + x * y * eab) / 4.0)
    if min(probs) < -EPS_PROB:
        raise MomentError(
            f"moments (a={ea!r}, b={eb!r}, ab={eab!r}) imply a negative probability"
        )
    return tuple(probs)


def build_bell(
    product_expectations: list[float] | tuple[float, ...],
    marginals: list[float] | tuple[float, ...],
) -> System:
    """Rank-4 system from per-context moments, in the +1/-1 language.

    ``product_expectations`` gives <R_i R_{i+1}> for the four contexts c1..c4
    over contents q1..q4 arranged in a cycle (c_i pairs q_i with q_{i+1},
    indices wrapping).  ``marginals`` gives the eight single-variable
    expectations, two per context in context order: <q_i in c_i>,
    <q_{i+1} in c_i>.  Raises MomentError if any triple admits no
    distribution.
    """
    prods = tuple(float(v) for v in product_expectations)
    margs = tuple(float(v) for v in marginals)
    if len(prods) != 4 or len(margs) != 8:
        raise ParameterError("need 4 product expectations and 8 marginal expectations")
    for name, values in (("product", prods), ("marginal", margs)):
        for v in values:
            if not -1.0 <= v <= 1.0:
                raise ParameterError(f"{name} expectation {v!r} outside [-1, 1]")
    contents = [f"q{i + 1}" for i in range(4)]
    tables = []
    for i in range(4):
        pair = [contents[i], contents[(i + 1) % 4]]
        probs = _bunch_from_moments(margs[2 * i], margs[2 * i + 1], prods[i])
        tables.append((f"c{i + 1}", pair, probs))
    return build_system(contents, tables)
