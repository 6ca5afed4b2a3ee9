"""Command-line front end.

Subcommands: solve (auto-routed), check (feasibility and bounds only),
iterate (trace-producing run), gamma (print the coupling matrix), and the
built-in demo3/demo30 fixtures. Exit codes: 0 success, 1 validation
error, 2 numerical failure, 3 output error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import direct as direct_mod
from .errors import NumericalError, OutputError, ValidationError
from .model import assemble
from .run import emit, execute, write_json
from .scenario import RunOptions, Scenario, demo3_scenario, demo30_scenario, load_scenario


def _add_args(parser: argparse.ArgumentParser, with_scenario: bool = True,
              with_run: bool = True):
    if with_scenario:
        parser.add_argument("scenario", help="path to a scenario JSON file")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    if not with_run:
        return
    parser.add_argument("--tol", type=float, default=None, help="override run.tol")
    parser.add_argument("--max-iter", type=int, default=None, help="override run.max_iter")
    parser.add_argument(
        "--u0", default=None,
        help="initial powers in mW: one value or a comma-separated list",
    )
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument(
        "--strict-nonneg", action="store_true",
        help="abort the iteration on the first negative power",
    )
    parser.add_argument(
        "--timing", action="store_true", help="include wall-clock timing in JSON output"
    )


def _apply_overrides(scenario: Scenario, args, solver: str | None = None) -> Scenario:
    opts = scenario.run
    changes = {}
    if solver is not None:
        changes["solver"] = solver
    if args.tol is not None:
        changes["tol"] = args.tol
    if args.max_iter is not None:
        changes["max_iter"] = args.max_iter
    if args.u0 is not None:
        changes["u0"] = str(args.u0).split(",")  # RunOptions parses and checks them
    if args.strict_nonneg:
        changes["strict_nonnegative"] = True
    if not changes:
        return scenario
    return dataclasses.replace(scenario, run=dataclasses.replace(opts, **changes))


def _run_and_emit(scenario: Scenario, args) -> int:
    report = execute(scenario)
    emit(report, fmt=args.format, out_path=args.out, include_timing=args.timing)
    return 0


def _cmd_solve(args) -> int:
    return _run_and_emit(_apply_overrides(load_scenario(args.scenario), args), args)


def _cmd_iterate(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args, solver="iterative")
    return _run_and_emit(scenario, args)


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


def _cmd_demo(builder):
    def inner(args) -> int:
        return _run_and_emit(_apply_overrides(builder(), args), args)

    return inner


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="osnrgame",
        description="Power allocation for mixed game-player/target-seeker WDM links",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve a scenario with auto routing")
    _add_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("check", help="feasibility and power bounds only")
    _add_args(p, with_run=False)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("iterate", help="distributed iterative run with trace")
    _add_args(p)
    p.set_defaults(func=_cmd_iterate)

    p = sub.add_parser("gamma", help="print the coupling matrix and noise vector")
    _add_args(p, with_run=False)
    p.set_defaults(func=_cmd_gamma)

    p = sub.add_parser("demo3", help="3-channel built-in fixture (2 players, 1 seeker)")
    _add_args(p, with_scenario=False)
    p.set_defaults(func=_cmd_demo(demo3_scenario))

    p = sub.add_parser("demo30", help="30-channel built-in fixture (20 players, 10 seekers)")
    _add_args(p, with_scenario=False)
    p.set_defaults(func=_cmd_demo(demo30_scenario))

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    raise SystemExit(main())
