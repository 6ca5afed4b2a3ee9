"""The program side of an in-process workload: one fresh Python process.

    python perfbench/server.py WARMUP_SCENARIO WARMUP_OUT

It imports osnrgame, runs one untimed warm-up operation and prints
{"setup_s", "import_s", "import_modules", "error"}. It then reads one JSON
request per line from stdin and answers each with one JSON line:

    {"scenario": path, "out": path, "trace": bool}
                                 -> {"t": seconds, "error": ..., "typed": ...}
    {"exit": spans_path or null} -> writes the spans, {"maxrss_kb": ...}

With "trace" true the layer spans are installed for that one operation.

An operation is load_scenario -> run.execute -> run.emit(out_path=...),
timed from the call to the finished report. The client sends the next
request only after reading the answer, so this is a closed loop with one
client.
"""

import json
import resource
import sys
import time
import traceback

import tracing


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> int:
    warm_scenario, warm_out = sys.argv[1:3]
    start = time.perf_counter()
    before = len(sys.modules)
    import osnrgame  # noqa: F401

    import_s = time.perf_counter() - start
    import_modules = len(sys.modules) - before
    import importlib

    from osnrgame.errors import OsnrGameError

    # "osnrgame.run" the attribute is iterate.run; the module is reached by name
    run_mod = importlib.import_module("osnrgame.run")
    scenario_mod = importlib.import_module("osnrgame.scenario")

    def op(scenario_path, out_path):
        report = run_mod.execute(scenario_mod.load_scenario(scenario_path))
        run_mod.emit(report, out_path=out_path)

    def attempt(fn, *args) -> dict:
        t0 = time.perf_counter()
        try:
            fn(*args)
        except OsnrGameError as exc:
            return {"t": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}",
                    "typed": True}
        except Exception as exc:  # a crash is reported, the loop keeps serving
            traceback.print_exc()
            return {"t": time.perf_counter() - t0, "error": f"{type(exc).__name__}: {exc}",
                    "typed": False}
        return {"t": time.perf_counter() - t0, "error": None, "typed": True}

    warm = attempt(op, warm_scenario, warm_out)
    _reply({"setup_s": time.perf_counter() - start, "import_s": import_s,
            "import_modules": import_modules, "error": warm["error"]})

    tracer = tracing.Tracer()
    n_ops = 0
    for line in sys.stdin:
        req = json.loads(line)
        if "exit" in req:
            if req["exit"]:
                tracer.dump(req["exit"])
            _reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        if req.get("trace"):
            tracer.begin_op(n_ops)
            tracer.install()
            try:
                reply = attempt(tracer.span("op", op), req["scenario"], req["out"])
            finally:
                tracer.uninstall()
        else:
            reply = attempt(op, req["scenario"], req["out"])
        _reply(reply)
        n_ops += 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
