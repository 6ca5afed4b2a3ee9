"""Layer spans recorded from outside the program.

A Tracer replaces osnrgame's public functions at their module attributes
with wrappers that record a span (name, start, end, parent, op id) per call
and count work at the same boundaries, then lets execute/cli.main run
unchanged; uninstall() puts the originals back. Spans stay in memory until
dump(). Only the standard library is imported here, so loading this module
does not disturb the import counts.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name). A function imported by name into another
# module is wrapped there too, because that is the attribute its caller reads.
SPANS = (
    ("osnrgame.scenario", "load_scenario", "scenario.load"),
    ("osnrgame.cli", "load_scenario", "scenario.load"),
    ("osnrgame.link", "build_system_matrix", "link.build"),
    ("osnrgame.scenario", "build_system_matrix", "link.build"),
    ("osnrgame.model", "assemble", "model.assemble"),
    ("osnrgame.run", "assemble", "model.assemble"),
    ("osnrgame.cli", "assemble", "model.assemble"),
    ("osnrgame.direct", "check_feasibility", "direct.feasibility"),
    ("osnrgame.direct", "solve_dsnp", "direct.solve"),
    ("osnrgame.direct", "verify", "direct.verify"),
    ("osnrgame.direct", "power_bounds", "direct.bounds"),
    ("osnrgame.iterate", "convergence_rate", "iterate.sigma"),
    ("osnrgame.iterate", "run", "iterate.run"),
    ("osnrgame.iterate", "step", "iterate.step"),
    ("osnrgame.qp", "build_qp_from_stack", "qp.build"),
    ("osnrgame.qp", "solve_dual", "qp.dual"),
    ("osnrgame.qp", "recover_primal", "qp.recover"),
    ("osnrgame.run", "execute", "run.execute"),
    ("osnrgame.cli", "execute", "run.execute"),
    ("osnrgame.run", "emit", "run.serialize"),
    ("osnrgame.cli", "emit", "run.serialize"),
)
# (module, attribute, counter name): calls counted, no span
COUNTERS = (
    ("scipy.linalg", "lu_factor", "direct.lu_factor_calls"),
    ("numpy.linalg", "inv", "direct.inv_calls"),
)


def pair_terms(network, channels) -> int:
    """(channel, link on its route, channel sharing that link) triples."""
    on_link = defaultdict(int)
    for c in channels:
        for lid in c.route:
            on_link[lid] += 1
    return sum(on_link[lid] for c in channels for lid in c.route)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.counts: dict[tuple, float] = defaultdict(float)  # (op, name) -> n
        self.op = None
        self._stack: list[int] = []
        self._table: list[tuple] = []  # (module, attribute, original, wrapper)

    def begin_op(self, op_id) -> None:
        self.op = op_id

    def count(self, name: str, n: float = 1) -> None:
        self.counts[(self.op, name)] += n

    def record(self, name: str, start: float, end: float) -> None:
        """A span measured by the caller, child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append((len(self.spans), name, start, end, parent, self.op))

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; parents precede children
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, self.op)

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def _build(self, fn):
        def build_system_matrix(network, channels, *args, **kwargs):
            out = fn(network, channels, *args, **kwargs)
            self.count("link.pair_terms", pair_terms(network, channels))
            return out

        return build_system_matrix

    def _dual(self, fn):
        """solve_dual with its on_step hook counting accepted iterates."""

        def solve_dual(qp, *args, **kwargs):
            user = args[2] if len(args) > 2 else kwargs.pop("on_step", None)
            args = args[:2]
            seen = [0]

            def on_step(mu, value):
                seen[0] += 1
                if user is not None:
                    user(mu, value)

            converged = False
            try:
                out = fn(qp, *args, on_step=on_step, **kwargs)
                converged = True
                return out
            finally:
                self.count("qp.dual_calls")
                self.count("qp.dual_converged", converged)
                self.count("qp.dual_steps", max(seen[0] - 1, 0))  # first call is mu = 0

        return solve_dual

    def install(self) -> None:
        """Wrap every listed attribute of the osnrgame modules already imported."""
        if not self._table:
            special = {"link.build": self._build, "qp.dual": self._dual}
            wrapped = {}
            for mod_name, attr, name in SPANS:
                mod = sys.modules.get(mod_name)
                if mod is None:
                    continue
                fn = getattr(mod, attr)
                if (id(fn), name) not in wrapped:
                    inner = special[name](fn) if name in special else fn
                    wrapped[(id(fn), name)] = self.span(name, inner)
                self._table.append((mod, attr, fn, wrapped[(id(fn), name)]))
            for mod_name, attr, name in COUNTERS:
                mod = sys.modules[mod_name]
                fn = getattr(mod, attr)
                self._table.append((mod, attr, fn, self._counter(name, fn)))
        for mod, attr, _, wrapper in self._table:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back."""
        for mod, attr, original, _ in self._table:
            setattr(mod, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans,
                       "counts": [[op, name, n] for (op, name), n in self.counts.items()]}, fh)


def self_times(spans: list, counts: list, n_ops: int) -> tuple[dict, dict]:
    """Mean self time per op for each span name, and mean count per op.

    A span's self time is its duration minus that of its direct children.
    spans and counts come from one or more dump() files; span ids are unique
    within an op.
    """
    child = defaultdict(float)
    for sid, name, start, end, parent, op in spans:
        if parent is not None:
            child[(op, parent)] += end - start
    self_s = defaultdict(float)
    for sid, name, start, end, parent, op in spans:
        self_s[name] += (end - start) - child[(op, sid)]
    per_op = defaultdict(float)
    for op, name, n in counts:
        per_op[name] += n
    return ({name: t / n_ops for name, t in self_s.items()},
            {name: n / n_ops for name, n in per_op.items()})
