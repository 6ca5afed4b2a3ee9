"""Compare the CLI results of a git revision with those of the working tree.

    python bench/compare.py REV

REV is extracted with `git archive` and `tar` into a temporary directory.
The documents that perfbench/workloads.py builds for seeds 401 and 402 and
each of the three workloads are written once and read by both sides. On
each side one subprocess imports that side's osnrgame and runs `cli.main`
in-process: solve, check, gamma, iterate and `iterate --format csv` on
every document, and demo3 and demo30 in JSON and CSV. Each command's stdout, stderr and
exit code make one result.

Prints the count of byte-identical results. For each differing result it
prints what differs: the exit code, stderr, and, for JSON or CSV output,
each key (list indices dropped) with the count of its values that differ,
their largest relative difference |a - b| / max(|a|, |b|) and their largest
absolute difference. A number that is 0 on one side only differs by 1
relative; a value that is not a number on either side differs by inf.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (401, 402)
WORKLOADS = ("cli-small", "network-routes", "matrix-mixed")
DEMOS = [["demo3"], ["demo3", "--format", "csv"], ["demo30"], ["demo30", "--format", "csv"]]


def commands(workdir: str) -> list[list[str]]:
    """The command lines: five per generated document, then the demos."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    import workloads

    cmds = []
    for seed in SEEDS:
        for name in WORKLOADS:
            docs = os.path.join(workdir, f"{name}-{seed}")
            os.makedirs(docs)
            load = workloads.build(name, seed, docs, ROOT)
            for entry in [load.warmup, *load.pool]:
                cmds += [[cmd, entry.path] for cmd in ("solve", "check", "gamma", "iterate")]
                cmds.append(["iterate", entry.path, "--format", "csv"])
    return cmds + DEMOS


def run_side(src: str, cmd_file: str, out_file: str) -> None:
    """Run every command through src's cli.main, and write [stdout, stderr,
    exit code] per command as JSON."""
    sys.path.insert(0, src)
    from osnrgame import cli

    results = []
    for argv in json.load(open(cmd_file)):
        out, err = io.StringIO(), io.StringIO()
        # a fresh warnings registry per command, as in one process per command
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        results.append([out.getvalue(), err.getvalue(), code])
    with open(out_file, "w") as fh:
        json.dump(results, fh)


def _parse(text: str):
    """JSON output as a tree, CSV output as {column: values}, else None."""
    try:
        return json.loads(text)
    except ValueError:
        pass
    lines = text.splitlines()
    if not lines:
        return None
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return {key: [_number(row[k]) for row in rows if k < len(row)]
            for k, key in enumerate(header)}


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _leaves(tree, path="", out=None):
    """(key, value) for every leaf; list indices are dropped from the key."""
    out = [] if out is None else out
    if isinstance(tree, dict):
        for key, value in tree.items():
            _leaves(value, f"{path}.{key}" if path else key, out)
    elif isinstance(tree, list):
        for value in tree:
            _leaves(value, path + "[]", out)
    else:
        out.append((path, tree))
    return out


def _differences(a, b) -> tuple[float, float]:
    """Relative and absolute difference of two numbers; inf for anything else."""
    numbers = (int, float)
    if isinstance(a, bool) or isinstance(b, bool) or not (
            isinstance(a, numbers) and isinstance(b, numbers)):
        return (0.0, 0.0) if a == b else (math.inf, math.inf)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    return abs(a - b) / max(abs(a), abs(b)), abs(a - b)


def describe(old: str, new: str) -> list[str]:
    """One line per key whose values differ between two outputs."""
    a, b = _parse(old), _parse(new)
    if a is None or b is None:
        return ["stdout differs"]
    la, lb = _leaves(a), _leaves(b)
    if [k for k, _ in la] != [k for k, _ in lb]:
        lines = ["keys differ:"]
        ka, kb = dict(la), dict(lb)
        lines += [f"  only at REV: {k}" for k in ka if k not in kb]
        lines += [f"  only here: {k}" for k in kb if k not in ka]
        return lines
    stats: dict[str, tuple[int, float, float]] = {}
    for (key, x), (_, y) in zip(la, lb):
        rel, diff = _differences(x, y)
        if rel == 0.0:
            continue
        count, worst_rel, worst_abs = stats.get(key, (0, 0.0, 0.0))
        stats[key] = (count + 1, max(worst_rel, rel), max(worst_abs, diff))
    lines = [f"{key}: {count} value(s), max rel {rel:.3g}, max abs {diff:.3g}"
             for key, (count, rel, diff) in stats.items()]
    return lines or ["stdout differs in layout only"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the git revision to compare with")
    parser.add_argument("--side", nargs=3, metavar=("SRC", "COMMANDS", "OUT"),
                        help=argparse.SUPPRESS)  # one side's subprocess
    args = parser.parse_args()
    if args.side:
        run_side(*args.side)
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", args.rev],
                                 check=True, capture_output=True).stdout
        os.makedirs(os.path.join(tmp, "rev"))
        subprocess.run(["tar", "-x", "-C", os.path.join(tmp, "rev")], input=archive, check=True)
        cmds = commands(os.path.join(tmp, "docs"))
        cmd_file = os.path.join(tmp, "commands.json")
        with open(cmd_file, "w") as fh:
            json.dump(cmds, fh)
        sides = []
        for label, root in (("rev", os.path.join(tmp, "rev")), ("tree", ROOT)):
            out_file = os.path.join(tmp, f"{label}.json")
            subprocess.run([sys.executable, os.path.abspath(__file__), args.rev, "--side",
                            os.path.join(root, "src"), cmd_file, out_file], check=True)
            sides.append(json.load(open(out_file)))
        same = 0
        for argv, old, new in zip(cmds, *sides):
            if old == new:
                same += 1
                continue
            shown = " ".join(os.path.relpath(a, tmp) if os.path.isabs(a) else a for a in argv)
            print(shown)
            if old[2] != new[2]:
                print(f"  exit code {old[2]} -> {new[2]}")
            if old[1] != new[1]:
                print("  stderr differs")
            if old[0] != new[0]:
                print("\n".join("  " + line for line in describe(old[0], new[0])))
    print(f"{same} of {len(cmds)} results byte-identical at {args.rev} and in the working tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
