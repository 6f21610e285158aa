"""Command line interface.

Three subcommands:

* ``varbreak test FILE``      run the break tests on a CSV series
* ``varbreak simulate``       run a preset size/power experiment grid
* ``varbreak critval``        print an asymptotic critical value

Exit status is 0 when the run produced reports (a statistical rejection
is data, not an error), 1 on operational errors, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import sys

from varbreak.errors import VarbreakError
from varbreak.nulldist import DecisionRule

DEFAULT_SEED = 12345
#: ``PipelineConfig.p_max``, written out so that building the parser imports no pipeline
DEFAULT_PMAX = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varbreak",
        description="Variance-break tests that tolerate smoothly changing variance.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="run the break tests on a CSV series")
    test.add_argument("file", help="CSV file with a DATE column and one value column")
    test.add_argument("--diff", type=int, default=1, metavar="K", help="difference order (default 1, 0 to skip)")
    test.add_argument("--ar", default="auto", metavar="auto|M", help="AR order, or 'auto' for AIC selection")
    test.add_argument("--pmax", type=int, default=DEFAULT_PMAX, metavar="P",
                      help="largest polynomial order tried (default %(default)s)")
    test.add_argument("--gamma", type=float, default=1.0, metavar="G", help="window exponent, length floor(n**G)")
    test.add_argument("--offset", type=float, default=0.0, metavar="F", help="window start as a fraction of n")
    test.add_argument("--rule", choices=("asymptotic", "paper"), default="asymptotic",
                      help="decision boundary: asymptotic quantile at --level, or the fixed 1.33 boundary")
    test.add_argument("--level", type=float, metavar="A", help="test level for the asymptotic rule (default 0.05)")
    test.add_argument("--clamp", action="store_true",
                      help="floor a non-positive fitted variance instead of failing")
    test.add_argument("--date-column", default="DATE")
    test.add_argument("--value-column", default=None)
    test.add_argument("--format", choices=("human", "json", "csv"), default="human")
    test.add_argument("--out", default=None, metavar="PATH", help="write the report here instead of stdout")

    sim = sub.add_parser("simulate", help="run a preset size/power experiment grid")
    sim.add_argument("--table", type=int, required=True, choices=(1, 2, 3, 4),
                     help="1/2: size grids (dgp1/dgp2); 3/4: power grids (dgp1/dgp2)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED, metavar="S", help="grid seed (default %(default)s)")
    sim.add_argument("--reps", type=int, default=1000, metavar="N", help="replications per cell")
    sim.add_argument("--workers", type=int, default=1, metavar="W", help="worker processes")
    sim.add_argument("--rule", choices=("asymptotic", "paper"), default="paper",
                     help="decision boundary (preset grids default to the fixed 1.33 boundary)")
    sim.add_argument("--level", type=float, metavar="A", help="test level for the asymptotic rule (default 0.05)")
    sim.add_argument("--format", choices=("human", "json", "csv"), default="csv")
    sim.add_argument("--out", default=None, metavar="PATH")

    crit = sub.add_parser("critval", help="print an asymptotic critical value")
    crit.add_argument("--level", type=float, default=0.05, metavar="A")

    return parser


def _decision(args) -> DecisionRule:
    if args.rule == "paper":
        return DecisionRule.fixed_boundary()
    return DecisionRule.asymptotic() if args.level is None else DecisionRule.asymptotic(args.level)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _cmd_test(args) -> int:
    from varbreak.dataio import load_csv  # here and below, not at the top: critval runs neither
    from varbreak.pipeline import PipelineConfig, emit_report, run_test_pipeline

    series = load_csv(args.file, date_column=args.date_column, value_column=args.value_column)
    if args.ar == "auto":
        ar_order = None
    else:
        try:
            ar_order = int(args.ar)
        except ValueError:
            raise ValueError(f"--ar expects 'auto' or an integer, got {args.ar!r}") from None
    config = PipelineConfig(
        diff_order=args.diff,
        ar_order=ar_order,
        p_max=args.pmax,
        gamma=args.gamma,
        offset_fraction=args.offset,
        rule=_decision(args),
        clamp=args.clamp,
    )
    reports = run_test_pipeline(series, config)
    _write(emit_report(list(reports), args.format), args.out)
    return 0


def _cmd_simulate(args) -> int:
    from varbreak.mc import run_table  # here, not at the top: only this command runs the engine
    from varbreak.pipeline import emit_report

    table = run_table(
        args.table,
        seed=args.seed,
        replications=args.reps,
        workers=args.workers,
        decision=_decision(args),
    )
    _write(emit_report(table, args.format), args.out)
    return 0


def _cmd_critval(args) -> int:
    if not 0.0 < args.level < 1.0:  # checked here too, to name the flag the user gave
        raise ValueError(f"--level must be in (0, 1), got {args.level}")
    sys.stdout.write(f"{DecisionRule.asymptotic(args.level).critical_value!r}\n")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "rule", None) == "paper" and args.level is not None:
        parser.error(f"{args.command}: --level applies to --rule asymptotic; --rule paper is the fixed boundary 1.33")
    commands = {"test": _cmd_test, "simulate": _cmd_simulate, "critval": _cmd_critval}
    try:
        return commands[args.command](args)
    except (VarbreakError, ValueError, OSError) as exc:
        print(f"varbreak: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
