"""osnrgame benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src. Workloads (each one closed loop with a single client, which sends
the next operation only after the previous one returned):

  cli-small       one op is one `python -m osnrgame.cli ...` process, timed
                  from spawn to exit, cycling solve / check / iterate --format
                  csv / gamma / demo3 / demo30 over single-link networks with
                  N in 3-30. Start-up and imports dominate.
  network-routes  one op is load_scenario -> run.execute -> run.emit in one
                  long-lived process, on 3-link networks with multi-link
                  routes and N in 60-240. The coupling-matrix build dominates.
  matrix-mixed    the same op on explicit matrices with N in 100-400, sigma
                  0.3-0.9 and solvers half auto, a quarter iterative, a
                  quarter qp. No link build; parse, linear algebra, iteration,
                  the QP fallback and an N^2 report.

The timed phase runs whole passes over the workload's scenarios until the
operations' summed time reaches --seconds. Each output is checked against
perfbench/reference.py between operations, outside the timed region;
throughput is checked operations over that summed time. With --trace 0
the last stdout line carries the end-to-end metrics; with --trace 1 each
operation of half that time runs untraced and then traced, and the line
carries the per-layer metrics (mean self time or count per operation;
see stages.json). Earlier stdout lines give the machine context and a
readable summary with fail_ratio. Results and spans are also written under
.perfbench-out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import numpy as np

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 5

_solve = lambda e, out: reference.check_solve_report(e.ref, e.solver, out)  # noqa: E731
CHECKS = {
    "run": _solve, "solve": _solve, "demo3": _solve, "demo30": _solve,
    "check": lambda e, out: reference.check_feasibility_doc(e.ref, out),
    "iterate-csv": lambda e, out: reference.check_csv_trace(e.ref, out),
    "gamma": lambda e, out: reference.check_gamma_doc(e.ref, out),
}

# per-layer metric -> span name whose mean self time per op it reports
LAYER_SPANS = {
    "cli.import_s": "cli.import",
    "cli.main_s": "cli.main",
    "scenario.load_s": "scenario.load",
    "link.build_s": "link.build",
    "model.assemble_s": "model.assemble",
    "direct.feasibility_s": "direct.feasibility",
    "direct.solve_s": "direct.solve",
    "direct.verify_s": "direct.verify",
    "direct.bounds_s": "direct.bounds",
    "iterate.sigma_s": "iterate.sigma",
    "iterate.run_s": "iterate.run",
    "iterate.step_s": "iterate.step",
    "qp.build_s": "qp.build",
    "qp.dual_s": "qp.dual",
    "qp.recover_s": "qp.recover",
    "run.execute_s": "run.execute",
    "run.serialize_s": "run.serialize",
    "trace.unattributed_s": "op",
}
LAYER_COUNTS = ("cli.import_modules", "link.pair_terms", "direct.lu_factor_calls",
                "direct.inv_calls", "qp.dual_steps")


def check_output(cmd: str, entry, out: str) -> str | None:
    """None when the output is right, else why not."""
    try:
        CHECKS[cmd](entry, out)
    except reference.CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None


# --- the program side --------------------------------------------------------


class Server:
    """A perfbench/server.py process serving in-process operations."""

    def __init__(self, root: str, env: dict, warm: workloads.Entry, warm_out: str):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), warm.path, warm_out],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._read()

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"server exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, req: dict) -> dict:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self, spans_path: str | None = None) -> dict:
        reply = self.call({"exit": spans_path})
        self.proc.wait(timeout=60)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class InProcess:
    """Operations served by one long-lived process after SETUP_REPS fresh
    processes each measured import plus warm-up."""

    def __init__(self, root, env, wl, work, setup_reps):
        self.root, self.env, self.wl, self.work = root, env, wl, work
        self.setup_reps = setup_reps
        self.server = None
        self.spans_path = os.path.join(work, "spans.json")

    def setup(self) -> list[dict]:
        out = []
        for rep in range(self.setup_reps):
            warm_out = os.path.join(self.work, "warmup.out")
            server = Server(self.root, self.env, self.wl.warmup, warm_out)
            try:
                hello = dict(server.hello)
                hello["check"] = hello["error"] or check_output("run", self.wl.warmup, warm_out)
                out.append(hello)
                if rep < self.setup_reps - 1:
                    server.close()
            except BaseException:
                server.kill()
                raise
        self.server = server
        return out

    def op(self, i, cmd, entry, out, traced) -> dict:
        return self.server.call({"scenario": entry.path, "out": out, "trace": traced})

    def finish(self, traced: bool) -> tuple[float, list, list]:
        reply = self.server.close(self.spans_path if traced else None)
        spans, counts = [], []
        if traced:
            with open(self.spans_path) as fh:
                doc = json.load(fh)
            spans, counts = doc["spans"], doc["counts"]
        return reply["maxrss_kb"] / 1024.0, spans, counts

    def close(self) -> None:
        if self.server is not None:
            self.server.kill()


class Cli:
    """One osnrgame CLI process per operation."""

    def __init__(self, root, env, wl, work, setup_reps):
        self.root, self.env, self.wl, self.work = root, env, wl, work
        self.setup_reps = setup_reps
        self.spans, self.counts = [], []

    def _spawn(self, argv: list[str]) -> dict:
        t0 = perf_counter()
        proc = subprocess.run(argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        t = perf_counter() - t0
        if proc.returncode == 0:
            return {"t": t, "error": None, "typed": True}
        lines = proc.stderr.strip().splitlines() or [""]
        # exit codes 1-3 are the CLI's typed errors; a traceback is a crash
        typed = proc.returncode in (1, 2, 3) and "Traceback" not in proc.stderr
        return {"t": t, "error": f"exit {proc.returncode}: {lines[-1]}", "typed": typed}

    def setup(self) -> list[dict]:
        out = []
        for _ in range(self.setup_reps):
            warm_out = os.path.join(self.work, "warmup.out")
            r = self.op(None, "solve", self.wl.warmup, warm_out, False)
            out.append({"setup_s": r["t"],
                        "check": r["error"] or check_output("solve", self.wl.warmup, warm_out)})
        return out

    def op(self, i, cmd, entry, out, traced) -> dict:
        if cmd == "iterate-csv":
            args = ["iterate", entry.path, "--format", "csv", "--out", out]
        else:  # the demos are built in and take no scenario file
            args = [cmd, *([entry.path] if entry.path else []), "--out", out]
        if not traced:
            return self._spawn([sys.executable, "-m", "osnrgame.cli", *args])
        spans_path = os.path.join(self.work, "op-spans.json")
        r = self._spawn([sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *args])
        end = perf_counter()
        # the child's top-level spans hang under this op's root, id -1
        self.spans.append([-1, "op", end - r["t"], end, None, i])
        if os.path.exists(spans_path):
            with open(spans_path) as fh:
                doc = json.load(fh)
            os.remove(spans_path)
            for sid, name, start, stop, parent, _ in doc["spans"]:
                self.spans.append([sid, name, start, stop, -1 if parent is None else parent, i])
            self.counts.extend([i, name, n] for _, name, n in doc["counts"])
        return r

    def finish(self, traced: bool) -> tuple[float, list, list]:
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return rss_mb, self.spans, self.counts

    def close(self) -> None:
        pass


# --- measurement ---------------------------------------------------------------


def closed_loop(runner, wl, work, seconds: float, trace: bool):
    """Operations 0, 1, ... in whole passes until their summed untraced time
    reaches seconds. With trace, every operation also runs with spans
    recorded, next to its untraced run so both see the machine in the same
    state; which of the two goes first alternates, so warm caches favour
    neither. Each output is checked before the next request."""
    untraced, traced, busy, i = [], [], 0.0, 0
    while busy < seconds or i % wl.pass_len:
        cmd, entry = wl.op(i)
        for trace_it in ((False, True) if i % 2 else (True, False)) if trace else (False,):
            out = os.path.join(work, f"op{i}.out")
            r = runner.op(len(traced), cmd, entry, out, trace_it)
            r["bytes"] = os.path.getsize(out) if os.path.exists(out) else 0
            r["check"] = None if r["error"] else check_output(cmd, entry, out)
            if os.path.exists(out):
                os.remove(out)
            (traced if trace_it else untraced).append(r)
        busy += untraced[-1]["t"]
        i += 1
    return untraced, traced, busy


def layer_metrics(spans, counts, traced, untraced, setups) -> dict:
    n = len(traced)
    self_s, count = tracing.self_times(spans, counts, n)
    m = {name: (self_s.get(span, 0.0), "s") for name, span in LAYER_SPANS.items()}
    m.update({name: (count.get(name, 0.0), "count") for name in LAYER_COUNTS})
    if "cli.import" not in self_s:  # in-process: imported once, at set-up
        m["cli.import_s"] = (statistics.median(s["import_s"] for s in setups), "s")
        m["cli.import_modules"] = (statistics.median(s["import_modules"] for s in setups), "count")
    m["iterate.steps"] = (sum(1 for s in spans if s[1] == "iterate.step") / n, "count")
    calls = count.get("qp.dual_calls", 0.0)
    converged = count.get("qp.dual_converged", 0.0) / calls if calls else 0.0
    m["qp.converged_ratio"] = (converged, "ratio")
    m["run.report_bytes"] = (statistics.fmean(r["bytes"] for r in traced), "bytes")
    m["trace.op_s"] = (statistics.fmean(r["t"] for r in traced), "s")
    m["trace.overhead_s"] = (statistics.median(r["t"] for r in traced)
                             - statistics.median(r["t"] for r in untraced), "s")
    return m


def measure(root: str, name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns the result object and the record to keep."""
    work = os.path.join(root, ".perfbench-work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p)
    try:
        wl = workloads.build(name, seed, work, root, tiny=tiny)
        cls = InProcess if wl.in_process else Cli
        runner = cls(root, env, wl, work, 1 if tiny else SETUP_REPS)
        try:
            setups = runner.setup()
            untraced, traced, busy = closed_loop(
                runner, wl, work, seconds / 2 if trace else seconds, trace)
            records_all = untraced + traced
            rss_mb, spans, counts = runner.finish(trace)
        finally:
            runner.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passed = sum(1 for r in records_all if r["error"] is None and r["check"] is None)
    bad = [r for r in records_all if r["check"] or not r["typed"]]
    bad += [s for s in setups if s["check"]]
    if trace:
        metrics = layer_metrics(spans, counts, traced, untraced, setups)
    else:
        lat = [r["t"] for r in untraced]
        p50, p90 = np.percentile(lat, [50, 90])
        metrics = {
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "latency_s_p50": (float(p50), "s"),
            "latency_s_p90": (float(p90), "s"),
            "throughput_ops_s": (passed / busy, "1/s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    result = {
        "correct": not bad,
        "attempted": len(records_all),
        "failed": len(records_all) - passed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    errors = sorted({r["error"] or r["check"] for r in records_all if r["error"] or r["check"]})
    keep = {"records": records_all, "setups": setups, "errors": errors,
            "spans": spans, "counts": counts}
    return result, keep


# --- context and entry point ----------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def context(root: str, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = None
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "osnrgame")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-small", "network-routes", "matrix-mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "osnrgame", "__init__.py")):
        print("error: run from the root of an osnrgame checkout (src/osnrgame not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    ctx = context(root, args.seed)
    result, keep = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))

    out_dir = os.path.join(root, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump({"context": ctx, "workload": args.workload, "seconds": args.seconds,
                   "result": result, **keep}, fh)

    n, failed = result["attempted"], result["failed"]
    print("context " + json.dumps(ctx))
    print(f"{args.workload} seed {args.seed}: {n} ops, {failed} failed, "
          f"fail_ratio {failed / n:.4f}, correct {result['correct']}")
    for err in keep["errors"][:5]:
        print(f"  failure: {err}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}"
              + (f" (n={n})" if name.startswith("latency") else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
