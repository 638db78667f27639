"""Time two source trees on one benchmark workload, operation by operation,
in one process.

    python tools/check_ab.py PARENT_SRC CHANGE_SRC --workload W --ops N [--seed S]
                             [--suite NAME]
    python tools/check_ab.py PARENT_SRC CHANGE_SRC --startup N [--command ARGS]

Each SRC is a directory that contains the ``qsympoly`` package (a
checkout's ``src``).  Both packages are imported into this process, under
the names ``tree_parent`` and ``tree_change``.  The operations are the
first N operations of the workload's seeded rounds, drawn from
``bench/workloads.py``.  A command-line operation runs through the tree's
``cli.main``.  A library operation (``eval`` and ``quadrature``) runs the
benchmark's own function for it, ``bench/ops.py`` ``LIBRARY``, with the
name ``qsympoly`` bound to the tree's package for the call.  Each operation
runs 3 times on each tree, the trees alternating, and its time on a tree
is the best of its 3.  Machine speed can drift within minutes, and
alternating operation by operation lets both trees see the same drift.
The tool prints each tree's mean ms/op, the median over operations of the
time ratio change/parent, that median for each operation kind
(``table``, ``export-poly``, ``export-weight``, ``check``, ``eval``,
``quadrature``), and whether every output matched: the exit code, stdout
and the file an export writes, or the repr of a library operation's
value (every float of its value columns, to the bit) or of the error it
raised.  It exits 1 if any output differs, else 0.  The process and every
spawn run in float arithmetic (QSYMPOLY_PRECISION is removed from the
environment).

With ``--suite NAME`` (a ``check`` suite such as ``limit``) only that
suite is timed: each operation is parsed and configured once per tree, the
Gram that the ortho and norm suites read is assembled outside the timing,
and the output compared is the suite's list of lines.  Operations that do
not run the suite are skipped.

With ``--startup N`` the tool times instead N cold interpreters per tree,
the trees alternating, each running ``import qsympoly.cli`` and nothing
else, or with ``--command ARGS`` the whole command ``python -m qsympoly
ARGS`` (say ``--command "check all -q 0.9"``); an operation is then one
pair of spawns, and its output the spawns' exit code, stdout and stderr.
Each spawn imports a fresh copy of the tree's
``qsympoly/*.py`` under PYTHONDONTWRITEBYTECODE=1, so that neither tree
reads a bytecode cache: compiling the package is part of every cold start
that finds no cache, and a tree that finds one would skip it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import importlib.util
import io
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
from glob import glob
from itertools import islice
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1] / "bench"
REPEATS = 3


def load_cli(src: str, name: str):
    """The ``cli`` module of the qsympoly package in ``src``, imported as
    the package ``name``."""
    pkg = os.path.join(os.path.abspath(src), "qsympoly")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def bench_module(name: str):
    """The module ``name`` of ``bench/``, such as ``workloads``."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def operations(workload: str, seed: int, count: int, tmpdir: str) -> list:
    """The first ``count`` operations of the workload."""
    rounds = bench_module("workloads").WORKLOADS[workload](seed, tmpdir)
    return list(islice((op for rnd in rounds for op in rnd), count))


def run_once(cli, op) -> tuple:
    """(seconds, output) of one run; output is (exit code, stdout, file)."""
    out = io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(op.argv))
    seconds = perf_counter() - t0
    written = None
    if op.out_path and os.path.exists(op.out_path):
        written = Path(op.out_path).read_bytes()
        os.remove(op.out_path)
    return seconds, (code, out.getvalue(), written)


def library_run(cli, op) -> tuple:
    """(seconds, output) of one run of the library operation op on the
    tree of ``cli``; output is the repr of its value or of its error."""
    run = bench_module("ops").LIBRARY[op.kind]
    real = sys.modules.get("qsympoly")
    # the package that ``from qsympoly import ...`` in bench/ops.py reads
    sys.modules["qsympoly"] = sys.modules[cli.__package__]
    t0 = perf_counter()
    try:
        value = run(op)
    except Exception as exc:  # the benchmark counts a failed operation
        value = exc
    finally:
        seconds = perf_counter() - t0
        if real is None:
            del sys.modules["qsympoly"]
        else:
            sys.modules["qsympoly"] = real
    return seconds, repr(value)


def suite_run(cli, op, name):
    """A no-argument run of the check suite ``name`` on op's parsed and
    configured arguments, returning (seconds, output), where output is the
    repr of the suite's lines or of the error it raised; None when op does
    not run that suite."""
    if op.argv is None:
        return None
    args = cli._build_parser().parse_args(list(op.argv))
    if args.command != "check" or args.suite not in ("all", name):
        return None
    cli._build_config(args, None)
    suite, default_tol = cli.CHECK_SUITES[name]
    tol = args.tol if args.tol is not None else default_tol
    gram = None
    if name in cli.GRAM_LINES:
        try:
            gram = cli.orthogonality_matrix(args.fam, args.n_max)
        except cli.DivergenceError:
            return None  # `check` prints FAIL lines in place of the suite's

    def run() -> tuple:
        t0 = perf_counter()
        try:
            lines = suite(args, tol, gram)
        except (cli.QSymPolyError, ValueError) as exc:  # exit 2 in `check`
            lines = exc
        return perf_counter() - t0, repr(lines)

    return run


def compare(runs) -> tuple:
    """(best parent seconds, best change seconds, outputs all equal) of the
    (parent, change) pair of runs, each called REPEATS times."""
    best = [float("inf"), float("inf")]
    outputs = set()
    for _ in range(REPEATS):
        for side, run in enumerate(runs):
            seconds, output = run()
            best[side] = min(best[side], seconds)
            outputs.add(output)
    return best[0], best[1], len(outputs) == 1


def startup_spawn(src: str, tmpdir: str, command: str | None = None) -> tuple:
    """(seconds, output) of one cold interpreter importing qsympoly.cli, or
    running ``python -m qsympoly`` with the arguments ``command``, from a
    fresh copy of the package in ``src``; output is (exit code, stdout,
    stderr)."""
    root = tempfile.mkdtemp(dir=tmpdir)
    pkg = os.path.join(root, "qsympoly")
    os.mkdir(pkg)
    for path in glob(os.path.join(src, "qsympoly", "*.py")):
        shutil.copy(path, pkg)
    env = dict(os.environ, PYTHONPATH=root, PYTHONDONTWRITEBYTECODE="1")
    argv = ["-c", "import qsympoly.cli"] if command is None else [
        "-m", "qsympoly", *shlex.split(command)]
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    return perf_counter() - t0, (proc.returncode, proc.stdout, proc.stderr)


def startup_rows(srcs: tuple, spawns: int, command: str | None = None) -> list:
    """Rows of (parent s, change s, same output) of ``spawns`` cold starts
    per tree, the tree that starts first alternating from row to row."""
    rows = []
    with tempfile.TemporaryDirectory() as tmpdir:
        for i in range(spawns):
            runs = {side: startup_spawn(srcs[side], tmpdir, command)
                    for side in (i % 2, 1 - i % 2)}
            rows.append((runs[0][0], runs[1][0], runs[0][1] == runs[1][1]))
    return rows


def verdict(rows, kinds=()) -> tuple:
    """(summary lines, exit code) for rows of (parent s, change s, same).
    With ``kinds``, the operation kind of each row, the median ratio of
    each kind follows the overall one: a change to one kind's path is
    diluted in the median over a mix of kinds."""
    ratios = [c / p for p, c, _ in rows]
    same = all(s for _, _, s in rows)
    lines = [
        f"operations {len(rows)}",
        f"parent {1e3 * statistics.fmean(p for p, _, _ in rows):.2f} ms/op",
        f"change {1e3 * statistics.fmean(c for _, c, _ in rows):.2f} ms/op",
        f"median ratio change/parent {statistics.median(ratios):.3f}",
    ]
    by_kind: dict = {}
    for kind, ratio in zip(kinds, ratios):
        by_kind.setdefault(kind, []).append(ratio)
    for kind, group in sorted(by_kind.items()):
        lines.append(f"  {kind}: median ratio {statistics.median(group):.3f}"
                     f" over {len(group)} operations")
    lines.append("outputs: all equal" if same
                 else f"outputs differ on {sum(not s for _, _, s in rows)} of {len(rows)} operations")
    return lines, 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--workload", choices=("check-deep", "check-sweep", "evaluate"))
    ap.add_argument("--ops", type=int)
    ap.add_argument("--seed", type=int, default=1011)
    ap.add_argument("--suite", help="time only this check suite")
    ap.add_argument("--startup", type=int, metavar="N",
                    help="time N cold imports of qsympoly.cli per tree instead")
    ap.add_argument("--command", metavar="ARGS",
                    help="with --startup, spawn `python -m qsympoly ARGS` instead")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isdir(os.path.join(src, "qsympoly")):
            ap.error(f"{src} has no qsympoly package")
    os.environ.pop("QSYMPOLY_PRECISION", None)
    if args.command is not None and args.startup is None:
        ap.error("--command needs --startup")
    if args.startup is not None:
        if args.startup < 1:
            ap.error("--startup must be at least 1")
        lines, code = verdict(startup_rows((args.parent_src, args.change_src), args.startup,
                                           args.command))
        print("\n".join(lines))
        return code
    if args.workload is None or args.ops is None:
        ap.error("--workload and --ops are required without --startup")
    if args.ops < 1:
        ap.error("--ops must be at least 1")
    parent = load_cli(args.parent_src, "tree_parent")
    change = load_cli(args.change_src, "tree_change")
    if args.suite is not None and args.suite not in change.CHECK_SUITES:
        ap.error(f"--suite must be one of {', '.join(change.CHECK_SUITES)}")
    with tempfile.TemporaryDirectory() as tmpdir:
        rows, kinds = [], []
        for op in operations(args.workload, args.seed, args.ops, tmpdir):
            if args.suite is None:
                run = run_once if op.argv is not None else library_run
                runs = [functools.partial(run, cli, op) for cli in (parent, change)]
            else:
                runs = [suite_run(cli, op, args.suite) for cli in (parent, change)]
                if None in runs:
                    continue
            row = compare(runs)
            if not row[2]:
                what = op.argv or [op.kind, op.family, f"{op.params}", f"-q{op.q!r}", f"-n{op.n}"]
                print(f"DIFF {' '.join(what)}")
            rows.append(row)
            kinds.append(op.kind)
    if not rows:
        ap.error(f"no operation of {args.workload} runs the {args.suite} suite")
    lines, code = verdict(rows, kinds)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())
