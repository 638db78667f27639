"""Compare the command-line output of two source trees, run by run.

    python tools/cli_identity.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that contains the ``qsympoly`` package (a
checkout's ``src``).  The matrix is 8 families x q in {0.3, 0.5, 0.9} x
{check all, check limit, check norm, check ode, table json, table csv,
eval -n 6 --grid=-0.9:0.9:7, export poly, export weight json, export
weight csv}, plus ``check all -q 0.9 --n-terms 700`` for
ultraspherical(0.4, 0.7) and hermite(0.3), plus 9 runs whose lines FAIL:
``check all --tol 0 -q 0.5`` for each family and ``check all`` for
hermite(2) at q = 0.9, whose Jackson sum diverges, plus 3 edge runs:
``table --custom=-1,1,-1,0.2 -q 0.5``, whose C_1 resonates, and ``check
ortho --n-max 1`` and ``check all --n-max 1``, which exit 2: 254 runs in
float arithmetic (QSYMPOLY_PRECISION is removed from their environment).
Then 60 runs under QSYMPOLY_PRECISION=30, which reach the mpf output path:
ultraspherical(0.4, 0.7), chebyshev6, hermite(0.3) and the custom vector
x q in {0.3, 0.5, 0.9} x {check all, check ortho, check norm, table json,
table csv}: 314 runs.  Every run is a ``python -m qsympoly`` subprocess,
two at a time.  Each run whose stdout, stderr or exit code differs
between the trees is listed, with the first pair of stdout lines that
differ; the exit code is 1 if any run differs, else 0.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

FAMILIES = (
    ("--family", "ultraspherical", "--alpha", "0.4", "--beta", "0.7"),
    ("--family", "ultraspherical", "--alpha=-0.3", "--beta", "1.2"),
    ("--family", "chebyshev5"),
    ("--family", "chebyshev6"),
    ("--family", "hermite", "-p", "0"),
    ("--family", "hermite", "-p", "0.3"),
    ("--family", "hermite", "-p", "0.5"),
    ("--custom=-1,1,-1.5,0.2",),
)
QS = ("0.3", "0.5", "0.9")
COMMANDS = (
    ("check", "all"),
    ("check", "limit"),
    ("check", "norm"),
    ("check", "ode"),
    ("table", "--format", "json"),
    ("table", "--format", "csv"),
    ("eval", "-n", "6", "--grid=-0.9:0.9:7"),
    ("export", "poly"),
    ("export", "weight", "--format", "json"),
    ("export", "weight", "--format", "csv"),
)
DEEP = (FAMILIES[0], FAMILIES[5])
# the runs at 30 digits
MP_FAMILIES = (FAMILIES[0], FAMILIES[3], FAMILIES[5], FAMILIES[7])
MP_COMMANDS = (("check", "all"), ("check", "ortho"), ("check", "norm"),
               ("table", "--format", "json"), ("table", "--format", "csv"))
MP_DIGITS = "30"
JOBS = 2


def matrix() -> list:
    """(QSYMPOLY_PRECISION or None, argv) of every run, in a fixed order."""
    runs = [cmd + fam + ("-q", q) for fam in FAMILIES for q in QS for cmd in COMMANDS]
    runs += [("check", "all") + fam + ("-q", "0.9", "--n-terms", "700") for fam in DEEP]
    # lines that FAIL: an unattainable tolerance, and a divergent Jackson sum
    runs += [("check", "all", "--tol", "0") + fam + ("-q", "0.5") for fam in FAMILIES]
    runs.append(("check", "all", "--family", "hermite", "-p", "2", "-q", "0.9"))
    # a resonant C_1 at c = a, and checks with no pair to compare
    runs += [("table", "--custom=-1,1,-1,0.2", "-q", "0.5"),
             ("check", "ortho", "--n-max", "1"), ("check", "all", "--n-max", "1")]
    mp_runs = [cmd + fam + ("-q", q) for fam in MP_FAMILIES for q in QS for cmd in MP_COMMANDS]
    return [(None, argv) for argv in runs] + [(MP_DIGITS, argv) for argv in mp_runs]


def label(precision, argv) -> str:
    """The run as a shell command line after ``python -m qsympoly``."""
    prefix = "" if precision is None else f"QSYMPOLY_PRECISION={precision} "
    return prefix + " ".join(argv)


def first_difference(old: str, new: str):
    """(line number from 1, old line, new line) of the first line that
    differs between two outputs, or None when they are equal.  A line
    that one output lacks reads as None."""
    a, b = old.splitlines(), new.splitlines()
    for k in range(max(len(a), len(b))):
        pair = (a[k] if k < len(a) else None, b[k] if k < len(b) else None)
        if pair[0] != pair[1]:
            return (k + 1, *pair)
    return None


def run(src: str, precision, argv: tuple) -> tuple:
    env = {k: v for k, v in os.environ.items() if k != "QSYMPOLY_PRECISION"}
    env["PYTHONPATH"] = os.path.abspath(src)
    if precision is not None:
        env["QSYMPOLY_PRECISION"] = precision
    res = subprocess.run([sys.executable, "-m", "qsympoly", *argv],
                         capture_output=True, text=True, env=env, timeout=600)
    return res.returncode, res.stdout, res.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not os.path.isdir(os.path.join(src, "qsympoly")):
            ap.error(f"{src} has no qsympoly package")
    runs = matrix()

    def compare(run_spec):
        return run(args.parent_src, *run_spec), run(args.change_src, *run_spec)

    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(compare, runs))
    differing = 0
    for run_spec, (old, new) in zip(runs, results):
        parts = [name for name, a, b in zip(("exit code", "stdout", "stderr"), old, new)
                 if a != b]
        if parts:
            differing += 1
            print(f"DIFF {label(*run_spec)}: {', '.join(parts)}")
            diff = first_difference(old[1], new[1])
            if diff is not None:
                line, a, b = diff
                print(f"  stdout line {line}:\n  - {a}\n  + {b}")
    print(f"{differing} of {len(runs)} runs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
