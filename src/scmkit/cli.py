"""Command-line surface: assumptions + query + data in; estimand, estimate
and fit indices out.

Exit codes: 0 success, 1 usage or input error, 2 the query is not
identifiable (FAILURE), 3 the data cannot support the request (zero stratum,
missing data, degenerate resamples, zero-probability evidence, experimental
inputs that contradict the data).  A refusal's code is its ``ScmkitError``
class's ``exit_code``, 1 for an ``OSError``; any other exception is a bug.
"""

from __future__ import annotations

import contextlib
import os
import sys
from types import SimpleNamespace
from typing import IO, TYPE_CHECKING

from . import ScmkitError, _undecodable

if TYPE_CHECKING:
    import argparse

    from .query import QueryTerm

__all__ = ["run", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAILURE = 2
EXIT_DATA = 3


class UsageError(ScmkitError, ValueError):
    """Flags or an input file that no subcommand can act on."""


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise UsageError(f"{path}: {_undecodable(path)}") from None


# each subcommand's help line and flags in the order --help lists them, as
# the keyword arguments argparse's add_argument takes; every subcommand also
# takes --porcelain, listed last
_COMMANDS: dict[str, tuple[str, dict[str, dict]]] = {
    "identify": ("symbolic estimand for a causal query", {
        "--graph": {"required": True},
        "--query": {"required": True},
    }),
    "estimate": ("plug-in estimate of an identified query", {
        "--graph": {"required": True},
        "--query": {"required": True},
        "--data": {"required": True},
        "--bootstrap": {"type": int, "metavar": "B"},
        "--level": {"type": float, "default": 0.95},
        "--seed": {"type": int, "default": 0},
    }),
    "fit": ("fit indices: implied independencies vs data", {
        "--graph": {"required": True},
        "--data": {"required": True},
        "--alpha": {"type": float, "default": 0.05},
        "--bonferroni": {"action": "store_true"},
    }),
    "counterfactual": ("exact counterfactual probability", {
        "--scm": {"required": True},
        "--query": {"required": True},
    }),
    "pnps": ("probabilities of causation, exact or bounds", {
        "--scm": {},
        "--data": {},
        "--exposure": {"default": "X"},
        "--outcome": {"default": "Y"},
        "--px1": {"type": float},
        "--px0": {"type": float},
        "--experiment": {"help": "two-line file with px1 and px0"},
        "--x1": {"default": "1"},
        "--x0": {"default": "0"},
        "--y1": {"default": "1"},
        "--y0": {"default": "0"},
    }),
    "mediate": ("natural direct and indirect effects", {
        "--scm": {},
        "--graph": {},
        "--data": {},
        "--exposure": {"required": True},
        "--mediator": {"required": True},
        "--outcome": {"required": True},
        "--x0": {"required": True},
        "--x1": {"required": True},
    }),
    "recover": ("recoverable estimate from incomplete data", {
        "--graph": {"required": True, "help": "m-graph file"},
        "--data": {"required": True},
        "--target": {"required": True, "help": "e.g. 'Y=1' or 'X=0,Y=1'"},
    }),
    "discover": ("CPDAG from data or a known graph", {
        "--data": {},
        "--graph": {},
        "--alpha": {"type": float, "default": 0.05},
    }),
}
_PORCELAIN = {"--porcelain": {"action": "store_true"}}


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="scmkit",
        description="Causal inference engine over discrete structural causal models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name, spec in (flags | _PORCELAIN).items():
            p.add_argument(name, **spec)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse gives a call in the plain form: a subcommand,
    then its flags spelled in full, each value the next word and not
    starting with '-', every required flag given.  Any other call gives
    None and is left to argparse, which alone prints help and usage errors."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = _COMMANDS[argv[0]][1] | _PORCELAIN
    args = {name[2:]: spec.get("default", False if "action" in spec else None)
            for name, spec in flags.items()}
    words = iter(argv[1:])
    for word in words:
        spec = flags.get(word)
        if spec is None:
            return None
        if "action" in spec:
            args[word[2:]] = True
            continue
        value = next(words, "-")
        if value.startswith("-"):
            return None
        try:
            args[word[2:]] = spec.get("type", str)(value)
        except ValueError:
            return None
    if any(spec.get("required") and args[name[2:]] is None for name, spec in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], **args)


def run(argv: list[str], stdout: IO[str] | None = None, stderr: IO[str] | None = None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    args = _parse_plain(argv)
    if args is None:
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_OK if exc.code == 0 else EXIT_USAGE
    handler = globals()[f"_cmd_{args.command}"]
    try:
        for flag in ("graph", "data", "scm", "experiment"):  # no system opens such a path
            if "\0" in (getattr(args, flag, None) or ""):
                raise UsageError(f"--{flag}: a path cannot hold a NUL character")
        return handler(args, out, err)
    except (ScmkitError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return getattr(exc, "exit_code", EXIT_USAGE)


# one call is too short for a BLAS or OpenMP thread pool to pay for its start
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> None:
    # numpy reads these when it is first imported, which no handler has done
    # yet; a value the user set is kept
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.exit(run(sys.argv[1:]))


# --- command handlers -----------------------------------------------------------


def _identify(g, q, err):
    """The estimand of ``q`` on ``g``, or None once the refusal is printed."""
    from .identify import NonIdentifiable, identify

    result = identify(g, q)
    if isinstance(result, NonIdentifiable):
        print("FAILURE: the query is not identifiable from the observational "
              "distribution", file=err)
        print(result.describe(), file=err)
        return None
    return result.estimand


def _cmd_identify(args, out, err) -> int:
    from .expr import render, simplify
    from .graph import parse_graph
    from .query import parse_query

    estimand = _identify(parse_graph(_read(args.graph)), parse_query(args.query), err)
    if estimand is None:
        return EXIT_FAILURE
    print(render(simplify(estimand)), file=out)
    return EXIT_OK


def _require_literal(terms: tuple[QueryTerm, ...], subject: str, example: str) -> None:
    symbolic = [t.var for t in terms if not t.literal]
    if symbolic:
        raise UsageError(
            f"{subject} explicit values for {', '.join(sorted(symbolic))}, e.g. {example}"
        )


def _cmd_estimate(args, out, err) -> int:
    from .estimate import bootstrap_interval, load_table, plug_in
    from .expr import render, simplify
    from .graph import parse_graph
    from .query import parse_query

    g = parse_graph(_read(args.graph))
    q = parse_query(args.query)
    d = load_table(args.data)
    estimand = _identify(g, q, err)
    if estimand is None:
        return EXIT_FAILURE
    _require_literal(q.outcome + q.do + q.condition, "estimation needs", "P(Y=1|do(X=0))")
    if args.bootstrap is not None:
        est = bootstrap_interval(
            estimand, d, binding={}, B=args.bootstrap, level=args.level,
            seed=args.seed,
        )
    else:
        est = plug_in(estimand, d, binding={})
    if args.porcelain:
        fields = [_fmt(est.value), str(est.n)]
        if est.interval:
            lo, hi, level = est.interval
            fields += [_fmt(lo), _fmt(hi), f"{level:g}"]
        print("\t".join(fields), file=out)
        return EXIT_OK
    print(f"estimand: {render(simplify(estimand))}", file=out)
    print(f"estimate: {_fmt(est.value)}", file=out)
    print(f"n: {est.n}", file=out)
    if est.interval:
        lo, hi, level = est.interval
        print(
            f"ci: [{_fmt(lo)}, {_fmt(hi)}] level={level:g} "
            f"B={args.bootstrap} seed={args.seed}",
            file=out,
        )
    return EXIT_OK


def _cmd_fit(args, out, err) -> int:
    from .estimate import load_table
    from .fitcheck import fit_indices, render_fit_report
    from .graph import parse_graph

    g = parse_graph(_read(args.graph))
    d = load_table(args.data)
    report = fit_indices(g, d, alpha=args.alpha, bonferroni=args.bonferroni)
    print(render_fit_report(report, porcelain=args.porcelain), file=out)
    return EXIT_OK


_CF_EXAMPLE = "P(Y_{X=1}=1 | X=0)"


def _cmd_counterfactual(args, out, err) -> int:
    from .query import parse_query
    from .scm import CounterfactualQuery, counterfactual_query, parse_scm

    m = parse_scm(_read(args.scm))
    q = parse_query(args.query)
    if q.do:
        raise UsageError(f"counterfactual queries take subscripts, e.g. {_CF_EXAMPLE}")
    _require_literal(q.outcome + q.condition, "counterfactual queries need", _CF_EXAMPLE)
    antecedents = {t.dos for t in q.outcome}
    if len(antecedents) != 1:
        raise UsageError("all outcome terms must share one antecedent world")
    cq = CounterfactualQuery(
        target=tuple((t.var, t.token) for t in q.outcome),
        antecedent=next(iter(antecedents)),
        evidence=tuple((t.var, t.token) for t in q.condition),
    )
    value = counterfactual_query(m, cq)
    print(_fmt(value) if args.porcelain else f"probability: {_fmt(value)}", file=out)
    return EXIT_OK


def _parse_experiment_file(text: str) -> tuple[float, float]:
    found: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace("=", " ").split()
        with contextlib.suppress(ValueError):  # a value float() cannot read
            if len(parts) == 2 and parts[0] in ("px1", "px0"):
                found[parts[0]] = float(parts[1])
                continue
        raise UsageError(f"experiment file line {lineno}: expected 'px1 = <p>'")
    if len(found) != 2:
        raise UsageError("experiment file must set both px1 and px0")
    return found["px1"], found["px0"]


def _cmd_pnps(args, out, err) -> int:
    from .pnps import BoundsError, _check_roles, pn_ps_exact, pnps_bounds

    if args.scm and not args.data:
        from .scm import parse_scm

        m = parse_scm(_read(args.scm))
        result = pn_ps_exact(
            m, args.exposure, args.outcome,
            x1=args.x1, x0=args.x0, y1=args.y1, y0=args.y0,
        )
    elif args.data and not args.scm:
        if args.experiment:
            px1, px0 = _parse_experiment_file(_read(args.experiment))
        elif args.px1 is not None and args.px0 is not None:
            px1, px0 = args.px1, args.px0
        else:
            raise UsageError("bounds mode needs --px1/--px0 or --experiment")
        from .estimate import empirical_joint, load_table

        d = load_table(args.data)
        # before selecting, which would refuse the repeated column instead
        _check_roles(args.exposure, args.outcome, BoundsError)
        obs = empirical_joint(d.select((args.exposure, args.outcome)))
        result = pnps_bounds(
            obs, px1, px0, x=args.exposure, y=args.outcome,
            x1=args.x1, x0=args.x0, y1=args.y1, y0=args.y0,
        )
    else:
        raise UsageError("pnps needs exactly one of --scm (exact) or --data (bounds)")
    for name in ("pn", "ps", "pns"):
        value = getattr(result, name)
        if value is None:
            cells, text = ["NA"], "undefined"
        elif isinstance(value, tuple):
            cells = [_fmt(v) for v in value]
            text = f"[{', '.join(cells)}]"
        else:
            cells, text = [_fmt(value)], _fmt(value)
        print("\t".join([name, *cells]) if args.porcelain else f"{name}: {text}", file=out)
    for note in result.notes:
        print(f"note: {note}", file=err)
    return EXIT_OK


def _cmd_mediate(args, out, err) -> int:
    from .mediation import mediation_effects_data, mediation_effects_scm

    if args.scm and not (args.graph or args.data):
        from .scm import parse_scm

        m = parse_scm(_read(args.scm))
        report = mediation_effects_scm(
            m, args.exposure, args.mediator, args.outcome, args.x0, args.x1
        )
    elif args.graph and args.data and not args.scm:
        from .estimate import load_table
        from .graph import parse_graph

        g = parse_graph(_read(args.graph))
        d = load_table(args.data)
        report = mediation_effects_data(
            d, g, args.exposure, args.mediator, args.outcome, args.x0, args.x1
        )
    else:
        raise UsageError("mediate needs --scm, or --graph together with --data")
    names = ("te", "nde", "nie", "nie_reversed", "mediated_fraction")
    values = [getattr(report, name) for name in names]
    if args.porcelain:
        print("\t".join("NA" if v is None else _fmt(v) for v in values), file=out)
    else:
        for name, v in zip(names, values):
            print(f"{name}: {'undefined' if v is None else _fmt(v)}", file=out)
    return EXIT_OK


def _parse_target(text: str) -> dict[str, str]:
    target: dict[str, str] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise UsageError(f"target entry {part!r} must look like VAR=VALUE")
        var, value = (t.strip() for t in part.split("=", 1))
        if var in target:
            raise UsageError(f"target names {var} twice")
        target[var] = value
    if not target:
        raise UsageError("empty target")
    return target


def _cmd_recover(args, out, err) -> int:
    from .estimate import load_table
    from .expr import render
    from .recover import NotRecoverable, _evaluate, parse_mgraph, recoverability

    mg = parse_mgraph(_read(args.graph))
    d = load_table(args.data)
    target = _parse_target(args.target)
    decision = recoverability(mg, frozenset(target))
    if isinstance(decision, NotRecoverable):
        print(f"NOT RECOVERABLE: {decision.reason}", file=err)
        return EXIT_DATA
    est = _evaluate(decision, mg, d, target)
    if args.porcelain:
        print(f"{_fmt(est.value)}\t{est.n}", file=out)
        return EXIT_OK
    print(f"criterion: {decision.criterion}", file=out)
    print(f"estimand: {render(decision.estimand)}", file=out)
    print(f"estimate: {_fmt(est.value)}", file=out)
    print(f"n: {est.n}", file=out)
    return EXIT_OK


def _cmd_discover(args, out, err) -> int:
    from .discover import DataOracle, GraphOracle, discover_cpdag, render_cpdag
    from .graph import parse_graph

    if args.graph and not args.data:
        g = parse_graph(_read(args.graph))
        oracle = GraphOracle(g)
        variables = sorted(g.nodes)
    elif args.data and not args.graph:
        from .estimate import load_table

        d = load_table(args.data)
        oracle = DataOracle(d, alpha=args.alpha)
        variables = list(d.columns)
    else:
        raise UsageError("discover needs exactly one of --graph or --data")
    cpdag = discover_cpdag(oracle, variables)
    print(render_cpdag(cpdag), end="", file=out)
    return EXIT_OK
