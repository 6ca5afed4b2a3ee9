"""Command-line front end.

Subcommands: solve (auto-routed), check (feasibility and bounds only),
iterate (trace-producing run), gamma (print the coupling matrix), and the
built-in demo3/demo30 fixtures. Exit codes: 0 success, 1 validation
error, 2 numerical failure, 3 output error (an unwritable --out file or
stdout). `entry` is the process entry of `osnrgame` and `python -m
osnrgame.cli`; `main` is the same command without its process set-up.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import os
import sys

from . import direct as direct_mod
from .errors import NumericalError, OutputError, ValidationError
from .model import assemble
from .run import emit, execute, write_json, write_text
from .scenario import RunOptions, demo3_scenario, demo30_scenario, load_scenario

RUN_FIELDS = frozenset(f.name for f in dataclasses.fields(RunOptions))


def _cmd_run(args) -> int:
    scenario = args.demo() if args.demo else load_scenario(args.scenario)
    # a run flag is in args only when given (its default is SUPPRESS), under its field's name
    changes = {name: value for name, value in vars(args).items() if name in RUN_FIELDS}
    if changes:
        scenario = dataclasses.replace(scenario, run=dataclasses.replace(scenario.run, **changes))
    emit(execute(scenario), fmt=args.format, out_path=args.out, include_timing=args.timing)
    return 0


def _cmd_check(args) -> int:
    scenario = load_scenario(args.scenario)
    system = assemble(scenario.system_matrix(), scenario.partition)
    feas = direct_mod.check_feasibility(system)
    bounds = None
    if feas.nonsingular:
        bounds = direct_mod.power_bounds(system)
    write_json({"feasibility": feas, "bounds": bounds}, args.out)
    return 0


def _cmd_gamma(args) -> int:
    scenario = load_scenario(args.scenario)
    sysmat = scenario.system_matrix()
    write_json({"gamma": sysmat.gamma, "n0": sysmat.n0}, args.out)
    return 0


# (name, help, handler, built-in scenario); a command without one reads a scenario file
COMMANDS = (
    ("solve", "solve a scenario with auto routing", _cmd_run, None),
    ("check", "feasibility and power bounds only", _cmd_check, None),
    ("iterate", "distributed iterative run with trace", _cmd_run, None),
    ("gamma", "print the coupling matrix and noise vector", _cmd_gamma, None),
    ("demo3", "3-channel built-in fixture (2 players, 1 seeker)", _cmd_run, demo3_scenario),
    ("demo30", "30-channel built-in fixture (20 players, 10 seekers)", _cmd_run,
     demo30_scenario),
)


class _Parser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write of its own output; help for stdout
        # goes through write_text, whose OutputError main reports
        if message and file is sys.stdout:
            write_text(message)
        else:
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="osnrgame",
        description="Power allocation for mixed game-player/target-seeker WDM links",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, func, demo in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, demo=demo)
        if demo is None:
            p.add_argument("scenario", help="path to a scenario JSON file")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if func is not _cmd_run:
            continue
        p.add_argument("--tol", default=argparse.SUPPRESS, type=float, help="override run.tol")
        p.add_argument("--max-iter", default=argparse.SUPPRESS, type=int,
                       help="override run.max_iter")
        p.add_argument(
            "--u0", type=lambda text: text.split(","),  # RunOptions parses and checks them
            help="initial powers in mW: one value or a comma-separated list",
            default=argparse.SUPPRESS,
        )
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument(
            "--strict-nonneg", dest="strict_nonnegative", action="store_true",
            help="abort the iteration on the first negative power",
            default=argparse.SUPPRESS,
        )
        p.add_argument(
            "--timing", action="store_true", help="include wall-clock timing in JSON output"
        )
    sub.choices["iterate"].set_defaults(solver="iterative")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # help and usage leave by SystemExit
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """Run the command in sys.argv as this process, and exit with its code."""
    # Freeze what the imports allocated (~40k gc-tracked objects, mostly
    # numpy's and scipy's): the collector then never walks them again, and
    # the interpreter's exit skips their teardown, about 50 ms of a process.
    gc.freeze()
    status = main()
    if status == 3:
        # every write to stdout flushes, so main has reported any failed one;
        # its unwritten output would make the interpreter's own flush at exit
        # fail again, so send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(status)


if __name__ == "__main__":
    entry()
