"""Solver orchestration and machine-readable report output.

The auto route solves the channel-ordered system directly whenever its
matrix factors cleanly. Every route reports the feasibility check, whose
contraction factor sigma certifies the distributed iteration when it is
under 1. The power bounds bracket an answer not yet solved for, so they
come from `check` alone. A singular instance, or one whose run options say
solver "qp", falls back to the constrained least-squares solve. Only the
iterative route (the `iterate` command and the demos) runs the distributed
iteration, and it reports the trace.
"""

from __future__ import annotations

import dataclasses
import sys as _sys
import time
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import direct as direct_mod
from . import iterate as iterate_mod
from . import qp as qp_mod
from .direct import FeasibilityReport, Solution
from .errors import OutputError
from .iterate import IterationTrace
from .link import SystemMatrix
from .model import assemble, osnr, to_db
from .qp import QpResult
from .scenario import Scenario


@dataclass
class RunReport:
    path_taken: str  # "direct" (the auto solver's route), "qp", or "iterative"
    feasibility: FeasibilityReport  # sigma included, on every route
    solution: Solution | QpResult | None
    trace: IterationTrace | None  # the iterative route's; None on the others
    power_limit_violations: list[str]
    timing_s: dict[str, float]
    # the coupling matrix solved on; the CSV trace derives its OSNRs from it
    matrix: SystemMatrix = field(metadata={"json": False})


def _limit_violations(scenario: Scenario, u: np.ndarray) -> list[str]:
    out = []
    for limit, beyond, side in (
        (scenario.power_min_mW, np.less, "below minimum"),
        (scenario.power_max_mW, np.greater, "above maximum"),
    ):
        if limit is not None:
            out += [f"channel {i + 1}: {u[i]:.6g} mW {side} {limit}"
                    for i in np.flatnonzero(beyond(u, limit))]
    return out


def execute(scenario: Scenario) -> RunReport:
    timing: dict[str, float] = {}
    t0 = time.perf_counter()
    sysmat = scenario.system_matrix()
    timing["build"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    system = assemble(sysmat, scenario.partition)
    feas = direct_mod.check_feasibility(system)
    timing["feasibility"] = time.perf_counter() - t0

    opts = scenario.run
    solution: Solution | QpResult | None = None
    trace = None
    path = opts.solver

    t0 = time.perf_counter()
    if opts.solver == "qp" or (opts.solver != "iterative" and not feas.nonsingular):
        path = "qp"
        solution = qp_mod.solve_qp(system)
    elif opts.solver == "iterative":
        reference = system.equality_solution() if feas.nonsingular else None
        trace = iterate_mod.run(system, opts, reference=reference)
        solution = direct_mod.verify(trace.iterates[-1], system)  # run returns only when converged
    else:  # auto: sigma < 1 certifies the iteration, which would only re-derive u
        path = "direct"
        solution = direct_mod.solve_dsnp(system)
    timing["solve"] = time.perf_counter() - t0

    violations = _limit_violations(scenario, np.asarray(solution.u))
    return RunReport(
        path_taken=path,
        feasibility=feas,
        solution=solution,
        trace=trace,
        power_limit_violations=violations,
        timing_s=timing,
        matrix=sysmat,
    )


# sorted keys and no timing keep a report byte-stable; NaN and inf are written as null
JSON_OPTIONS = (orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
                | orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_PASSTHROUGH_DATACLASS)


def _json_default(obj):
    if dataclasses.is_dataclass(obj):  # its fields, less those marked {"json": False}
        return {f.name: getattr(obj, f.name)
                for f in dataclasses.fields(obj) if f.metadata.get("json", True)}
    if isinstance(obj, np.ndarray):  # orjson passes on arrays that are not C-contiguous
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _csv_rows(report: RunReport):
    yield "step,channel,u_mW,osnr_dB,err_inf"
    trace = report.trace
    if trace is None:
        return
    for step_idx, u in enumerate(trace.iterates):
        db = to_db(osnr(u, report.matrix))  # NaN where an iterate has no OSNR
        err = (
            f"{trace.error_history[step_idx]:.12f}"
            if step_idx < len(trace.error_history)
            else ""
        )
        for ch in range(len(u)):
            yield f"{step_idx},{ch + 1},{u[ch]:.12f},{db[ch]:.12f},{err}"


def write_text(text: str, out_path: str | None = None) -> None:
    try:
        if out_path is None:
            _sys.stdout.write(text)
            _sys.stdout.flush()  # so a full device or a closed pipe fails here
        else:
            with open(out_path, "w") as fh:
                fh.write(text)
    except OSError as exc:
        where = "stdout" if out_path is None else out_path
        raise OutputError(f"cannot write {where}: {exc}") from exc


def write_json(doc, out_path: str | None = None) -> None:
    write_text(orjson.dumps(doc, default=_json_default, option=JSON_OPTIONS).decode(), out_path)


def emit(
    report: RunReport,
    fmt: str = "json",
    out_path: str | None = None,
    include_timing: bool = False,
) -> None:
    """Write the report as one JSON document of size O(N + steps), or as a
    per-step CSV trace. The coupling matrix comes from `osnrgame gamma`, the
    per-step arrays from the CSV trace, and wall-clock timing only on request."""
    if fmt == "json":
        doc = _json_default(report)
        if not include_timing:
            del doc["timing_s"]
        write_json(doc, out_path)
    elif fmt == "csv":
        write_text("".join(row + "\n" for row in _csv_rows(report)), out_path)
    else:
        raise OutputError(f"unknown output format {fmt!r}")
