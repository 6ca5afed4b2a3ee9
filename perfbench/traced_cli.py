"""One osnrgame CLI command with layer spans recorded.

    python perfbench/traced_cli.py SPANS_OUT COMMAND [ARGS...]

Imports what `python -m osnrgame.cli` imports, recording the import as the
span "cli.import" and the number of modules it added, installs the layer
spans and calls cli.main unchanged as the span "cli.main". The spans are
written to SPANS_OUT and the exit code is cli.main's.
"""

import sys
import time

import tracing


def main() -> int:
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.begin_op(0)
    start = time.perf_counter()
    before = len(sys.modules)
    import osnrgame.cli as cli

    tracer.record("cli.import", start, time.perf_counter())
    tracer.count("cli.import_modules", len(sys.modules) - before)
    tracer.install()
    try:
        return tracer.span("cli.main", cli.main)(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main())
