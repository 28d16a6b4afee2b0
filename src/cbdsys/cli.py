"""Command-line interface.

Three subcommands: ``analyze`` (any system file), ``double-slit`` (parametric
two-slit scenario, single point or seeded sweep), and ``qq`` (question-order
diagnostics for rank-2 files).  Reports go to stdout, diagnostics to stderr,
and the exit code is the verdict channel for scripting:

* 0 - noncontextual
* 1 - input error (unreadable file, invalid system, unsupported shape)
* 2 - internal error (solver failure, method disagreement)
* 3 - contextual

One place, ``main``, turns every subcommand's errors into codes 1 and 2;
one function, ``_finish``, renders every report and exits with its
verdict's code.  A usage error (a missing or unreadable ``--input``, an
unknown option, a bad choice, no subcommand) is an input error like any
other: exit 1 with one ``error:`` line on stderr.

CBD_LOG=<level> (a standard level name such as debug; any other value means
info) sends log records of that level and above to stderr, prefixed with
level and logger name.  There
are two: CBD_LOG=debug shows one record per LP solve (``decide``: variable
count, cliques, rows x columns of the CNT1 LP, HiGHS model status, simplex
iteration count, degree of contextuality, verdict), and the sweep's
per-draw disagreement warning reaches stderr as a bare message even without
CBD_LOG.

Start-up loads the stdlib ``argparse`` and the closed-form modules (system,
fileio, cyclic, report) and nothing else of note: ``logging`` is loaded only
where a run logs (``main`` under CBD_LOG, the sweep's warning, the coupling
engine), and ``cbdsys.scenarios`` only by ``double-slit``.
Only an LP solve (``analyze --method lp/both``, ``analyze`` on a system with
no closed form, ``double-slit``) loads numpy, the coupling engine
(``cbdsys.coupling``) and scipy's HiGHS extension module; ``scipy.optimize``
is never imported.  ``--version``, ``qq``, closed-form ``analyze`` and every
input error load none of them, so they also run where numpy is missing.  An
engine module or bindings that are missing or fail to load exit 2 with an
``error:`` line.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import sys
from typing import TYPE_CHECKING, NoReturn

from . import __version__
from .cyclic import cyclic_criterion, detect_cyclic, qq_statistic
from .errors import (
    CbdError,
    ParameterError,
    ParseError,
    RankError,
    SolverError,
)
from .fileio import parse_system
from .report import (
    CONTEXTUAL,
    NONCONTEXTUAL,
    criterion_entry,
    engine_entry,
    lp_entry,
    overall_verdict,
    render_json,
    render_text,
    system_summary,
    witness_entry,
)
from .system import EPS_PROB, CouplingConstraint, System, consistency

if TYPE_CHECKING:
    from .coupling import FeasibilityVerdict

EXIT_NONCONTEXTUAL = 0
EXIT_INPUT_ERROR = 1
EXIT_INTERNAL_ERROR = 2
EXIT_CONTEXTUAL = 3

_CONSTRAINTS = {c.value: c for c in CouplingConstraint}


def _load(name: str):
    """Import the module ``name`` for an LP run; SolverError if it fails."""
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise SolverError(f"cannot load {name}: {exc}") from exc


def decide(system: System, constraint: CouplingConstraint) -> FeasibilityVerdict:
    """The coupling engine's decide, loading the engine and numpy on the
    first call."""
    return _load("cbdsys.coupling").decide(system, constraint)


def _fail(message: str, code: int) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _read_system(source: str) -> System:
    """Parse the system file at ``source``, or stdin for ``-``; either must
    be UTF-8 text."""
    if source != "-":
        try:
            return parse_system(source)
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc.strerror}") from exc
    if sys.stdin is None:
        raise ParseError("cannot read stdin: it is closed")
    # A POSIX locale's stdin would turn undecodable bytes into surrogates.
    sys.stdin.reconfigure(encoding="utf-8", errors="strict")
    return parse_system(sys.stdin)


def _finish(
    report: dict, output: str, verdict: str | None = None, failure: str | None = None
) -> NoReturn:
    """Append ``verdict`` and ``engine``, render the report, and exit with the
    verdict's code; a ``failure`` message means exit 2 after the report.

    Without an explicit ``verdict`` it is derived from ``results``, and a
    report whose ``agreement`` is false becomes a disagreement.
    """
    if verdict is None:
        if report.get("agreement", True):
            verdict = overall_verdict(report["results"])
        else:
            verdict, failure = "disagreement", "closed-form and LP verdicts disagree"
    report["verdict"] = verdict
    report["engine"] = engine_entry()
    sys.stdout.write(render_json(report) if output == "json" else render_text(report))
    if failure is not None:
        _fail(failure, EXIT_INTERNAL_ERROR)
    sys.exit(EXIT_NONCONTEXTUAL if verdict == NONCONTEXTUAL else EXIT_CONTEXTUAL)


def analyze(source: str, constraint: str, method: str, output: str, witness: bool) -> NoReturn:
    """Decide whether the system in a file is contextual."""
    want = _CONSTRAINTS[constraint]
    system = _read_system(source)
    layout = detect_cyclic(system)
    run_closed = method in ("closed-form", "both")
    run_lp = method in ("lp", "both")
    if method == "auto":
        if layout is not None and (
            want is CouplingConstraint.MAX_EQUALITY
            or consistency(system).consistently_connected
        ):
            run_closed = True
        else:
            run_lp = True
    if run_closed and layout is None:
        raise RankError(
            "closed-form criteria need a cyclic system (one cycle of"
            " two-content contexts, any rank); use --method lp"
        )

    results: list[dict] = []
    lp_verdict: FeasibilityVerdict | None = None
    if run_closed:
        if want is CouplingConstraint.EQUAL_ALWAYS and layout.rank == 4:
            name = "chsh_fine"
        else:
            name = f"cyclic{layout.rank}"
        results.append(criterion_entry(name, cyclic_criterion(system, layout, want)))
    if run_lp:
        lp_verdict = decide(system, want)
        results.append(lp_entry(want, lp_verdict))

    report = {
        "command": "analyze",
        "constraint": want.value,
        "method": method,
        "system": system_summary(system),
        "results": results,
    }
    if len(results) > 1:
        report["agreement"] = len({entry["noncontextual"] for entry in results}) == 1
    if witness:
        report["witness"] = witness_entry(lp_verdict) if lp_verdict else None
    _finish(report, output)


def double_slit(p, q, pp, qp, rp, sweep, seed, output, witness) -> NoReturn:
    """Analyze the two-slit detection scenario (always noncontextual)."""
    from .scenarios import DoubleSlitParams, build_double_slit, check_double_slit

    point = [p, q, pp, qp, rp]
    if sweep is not None:
        if any(v is not None for v in point):
            raise ParameterError("--sweep replaces the explicit parameters")
        if witness:
            raise ParameterError("--witness applies to a single run, not to --sweep")
        _double_slit_sweep(sweep, seed, output)
    if any(v is None for v in point):
        raise ParameterError("need all of --p --q --pp --qp --rp (or --sweep N)")
    params = DoubleSlitParams(p=p, q=q, p_prime=pp, q_prime=qp, r_prime=rp)
    closed = check_double_slit(params)
    system = build_double_slit(params)
    verdict = decide(system, CouplingConstraint.MAX_EQUALITY)
    report = {
        "command": "double-slit",
        "params": dataclasses.asdict(params),
        "system": system_summary(system),
        "results": [
            criterion_entry("cyclic4", closed),
            lp_entry(CouplingConstraint.MAX_EQUALITY, verdict),
        ],
        "agreement": closed.noncontextual == verdict.feasible,
    }
    if witness:
        report["witness"] = witness_entry(verdict)
    _finish(report, output)


def _double_slit_sweep(sweep: int, seed: int, output: str) -> NoReturn:
    import logging

    from .scenarios import build_double_slit, check_double_slit, sample_double_slit_params

    if sweep <= 0:
        raise ParameterError("--sweep must be positive")
    if seed < 0:
        raise ParameterError("--seed must be non-negative")
    rng = _load("numpy").random.default_rng(seed)
    contextual = disagreements = 0
    for i in range(sweep):
        params = sample_double_slit_params(rng)
        closed = check_double_slit(params)
        verdict = decide(build_double_slit(params), CouplingConstraint.MAX_EQUALITY)
        if closed.noncontextual != verdict.feasible:
            disagreements += 1
            logging.getLogger("cbdsys").warning(
                "draw %d: closed form and LP disagree (%r)", i, params
            )
        contextual += not closed.noncontextual
    report = {
        "command": "double-slit-sweep",
        "sweep": sweep,
        "seed": seed,
        "counts": {
            "noncontextual": sweep - contextual,
            "contextual": contextual,
            "disagreements": disagreements,
        },
    }
    failure = f"{disagreements} closed-form/LP disagreements" if disagreements else None
    _finish(report, output, CONTEXTUAL if contextual else NONCONTEXTUAL, failure)


def qq(source: str, output: str) -> NoReturn:
    """Question-order diagnostics: QQ statistic plus the rank-2 criterion."""
    system = _read_system(source)
    layout = detect_cyclic(system)
    if layout is None or layout.rank != 2:
        raise RankError("qq needs a cyclic system of rank 2")
    statistic = qq_statistic(system, layout)
    closed = cyclic_criterion(system, layout, CouplingConstraint.MAX_EQUALITY)
    report = {
        "command": "qq",
        "system": system_summary(system),
        "qq_statistic": statistic,
        "qq_equality_holds": abs(statistic) <= EPS_PROB,
        "results": [criterion_entry("cyclic2", closed)],
    }
    _finish(report, output)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message: str) -> NoReturn:
        _fail(message, EXIT_INPUT_ERROR)


_DEFAULT = " (default: %(default)s)"


def _parser() -> _Parser:
    parser = _Parser(
        prog="cbdsys", allow_abbrev=False,
        description="Contextuality analysis for context-content systems of binary variables.",
    )
    parser.add_argument("--version", action="version", version=f"cbdsys, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    def command(run):
        sub = commands.add_parser(run.__name__.replace("_", "-"), allow_abbrev=False,
                                  help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    def output(sub) -> None:
        sub.add_argument("--output", choices=["text", "json"], default="text",
                         help="Report format." + _DEFAULT)

    sub = command(analyze)
    sub.add_argument("--input", dest="source", required=True, metavar="PATH",
                     help="System file (JSON); '-' reads stdin.")
    sub.add_argument("--constraint", choices=sorted(_CONSTRAINTS),
                     default=CouplingConstraint.MAX_EQUALITY.value,
                     help="Coupling property demanded of within-connection pairs." + _DEFAULT)
    sub.add_argument("--method", choices=["auto", "closed-form", "lp", "both"],
                     default="auto",
                     help="auto = closed form for a cyclic system of any rank, LP"
                          " otherwise." + _DEFAULT)
    output(sub)
    sub.add_argument("--witness", action="store_true",
                     help="Include the coupling distribution when the LP finds one.")

    sub = command(double_slit)
    for flag, text in (("--p", "Pr[detector] with only the left slit open."),
                       ("--q", "Pr[detector] with only the right slit open."),
                       ("--pp", "Pr[through left slit only], both slits open."),
                       ("--qp", "Pr[through right slit only], both slits open."),
                       ("--rp", "Pr[through both slits], both slits open.")):
        sub.add_argument(flag, type=float, help=text)
    sub.add_argument("--sweep", type=int, metavar="N",
                     help="Analyze N random admissible parameter sets instead.")
    sub.add_argument("--seed", type=int, default=0,
                     help="Seed for --sweep draws." + _DEFAULT)
    output(sub)
    sub.add_argument("--witness", action="store_true",
                     help="Include the coupling distribution (single run only).")

    sub = command(qq)
    sub.add_argument("--input", dest="source", required=True, metavar="PATH",
                     help="Rank-2 system file (JSON); '-' reads stdin.")
    output(sub)
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Run one subcommand and exit with its code: a SolverError exits 2 and
    any other CbdError exits 1, each with one ``error:`` line."""
    name = os.environ.get("CBD_LOG", "").upper()
    if name:
        import logging

        level = getattr(logging, name, None)
        logging.basicConfig(
            level=level if isinstance(level, int) else logging.INFO, stream=sys.stderr
        )
    options = vars(_parser().parse_args(argv))
    run = options.pop("run")
    del options["command"]
    try:
        run(**options)
    except SolverError as exc:
        _fail(str(exc), EXIT_INTERNAL_ERROR)
    except CbdError as exc:
        _fail(str(exc), EXIT_INPUT_ERROR)


if __name__ == "__main__":
    main()
