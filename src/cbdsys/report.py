"""Analysis reports: one dict shape, rendered as canonical JSON or plain text.

Reports exist so the CLI's two output modes carry exactly the same numbers:
both renderers format floats through the same 17-significant-digit function,
and the JSON form round-trips losslessly.  Verdicts in a report are copied
verbatim from the operations that produced them.
"""

from __future__ import annotations

from .coupling import CouplingConstraint, FeasibilityVerdict
from .cyclic import CriterionResult, detect_cyclic
from .fileio import dumps_canonical, format_float
from .system import EPS_FEAS, EPS_PROB, System, connections, consistency

NONCONTEXTUAL = "noncontextual"
CONTEXTUAL = "contextual"


def system_summary(system: System) -> dict:
    layout = detect_cyclic(system)
    report = consistency(system)
    return {
        "contents": [c.id for c in system.contents],
        "contexts": [c.id for c in system.contexts],
        "cyclic_rank": layout.rank if layout is not None else None,
        "consistently_connected": report.consistently_connected,
        "max_marginal_gap": report.max_marginal_gap,
        "connections": [
            {
                "content": conn.content,
                "members": [
                    {"context": ctx, "p_plus": value} for ctx, value in conn.members
                ],
            }
            for conn in connections(system)
        ],
    }


def criterion_entry(method: str, result: CriterionResult) -> dict:
    return {
        "method": method,
        "lhs": result.lhs,
        "rhs": result.rhs,
        "margin": result.margin,
        "noncontextual": result.noncontextual,
        "boundary": result.boundary,
        "deltas": dict(result.deltas),
    }


def lp_entry(constraint: CouplingConstraint, verdict: FeasibilityVerdict) -> dict:
    return {
        "method": "lp",
        "constraint": constraint.value,
        "feasible": verdict.feasible,
        "noncontextual": verdict.feasible,
        "boundary": verdict.boundary,
        "max_constraint_violation": verdict.max_constraint_violation,
        "degree": verdict.degree,
    }


def witness_entry(verdict: FeasibilityVerdict) -> dict | None:
    if verdict.witness is None:
        return None
    return {
        "variables": [[content, context] for content, context in verdict.witness.variables],
        "probs": list(verdict.witness.probs),
    }


def engine_entry() -> dict:
    return {"eps_prob": EPS_PROB, "eps_feas": EPS_FEAS, "solver": "highs"}


def overall_verdict(results: list[dict]) -> str:
    return NONCONTEXTUAL if all(r["noncontextual"] for r in results) else CONTEXTUAL


def render_json(report: dict) -> str:
    return dumps_canonical(report) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def render_text(report: dict) -> str:
    """Line-oriented rendering of the same report dict."""
    lines: list[str] = []
    if "command" in report:
        lines.append(f"command: {report['command']}")
    if "params" in report:
        pairs = ", ".join(f"{k}={_fmt(v)}" for k, v in report["params"].items())
        lines.append(f"params: {pairs}")
    if "system" in report:
        summary = report["system"]
        rank = summary["cyclic_rank"]
        rank_text = f"cyclic rank {rank}" if rank is not None else "not cyclic"
        lines.append(
            f"system: {len(summary['contents'])} contents,"
            f" {len(summary['contexts'])} contexts, {rank_text}"
        )
        lines.append(
            "consistently connected: "
            f"{_fmt(summary['consistently_connected'])}"
            f" (max marginal gap {_fmt(summary['max_marginal_gap'])})"
        )
        for conn in summary["connections"]:
            members = ", ".join(
                f"{m['context']} {_fmt(m['p_plus'])}" for m in conn["members"]
            )
            lines.append(f"connection {conn['content']}: {members}")
    if "qq_statistic" in report:
        lines.append(f"qq statistic: {_fmt(report['qq_statistic'])}")
        lines.append(f"qq equality holds: {_fmt(report['qq_equality_holds'])}")
    for entry in report.get("results", []):
        if entry["method"] == "lp":
            # An infeasible verdict's number is its degree of contextuality.
            label = "max violation" if entry["feasible"] else "degree"
            lines.append(
                f"method lp ({entry['constraint']}): {label}"
                f" {_fmt(entry['max_constraint_violation'])} ->"
                f" {'feasible' if entry['feasible'] else 'infeasible'}"
                f" ({NONCONTEXTUAL if entry['noncontextual'] else CONTEXTUAL})"
                + (" [boundary]" if entry["boundary"] else "")
            )
        else:
            lines.append(
                f"method {entry['method']}: lhs {_fmt(entry['lhs'])}"
                f" rhs {_fmt(entry['rhs'])} margin {_fmt(entry['margin'])} ->"
                f" {NONCONTEXTUAL if entry['noncontextual'] else CONTEXTUAL}"
                + (" [boundary]" if entry["boundary"] else "")
            )
    if report.get("agreement") is not None:
        lines.append(f"methods agree: {_fmt(report['agreement'])}")
    if "counts" in report:
        counts = report["counts"]
        lines.append(
            f"sweep: {counts['noncontextual']} noncontextual,"
            f" {counts['contextual']} contextual,"
            f" {counts['disagreements']} disagreements"
            f" out of {report['sweep']} draws (seed {report['seed']})"
        )
    if "witness" in report:
        witness = report["witness"]
        if witness is None:
            lines.append("witness: none")
        else:
            variables = " ".join(f"{q}@{c}" for q, c in witness["variables"])
            lines.append(f"witness variables: {variables}")
            lines.append(
                "witness probs: " + " ".join(_fmt(v) for v in witness["probs"])
            )
    if "verdict" in report:
        lines.append(f"verdict: {report['verdict']}")
    return "\n".join(lines) + "\n"
