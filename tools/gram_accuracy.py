"""Compare the 40-digit Gram matrices of two source trees with a 90-digit one.

    python tools/gram_accuracy.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that contains the ``qsympoly`` package (a
checkout's ``src``).  For every case in CASES the family is built in
float arithmetic, as the command line builds it, and its vector and base
are promoted exactly to mpmath; ``orthogonality_matrix`` then assembles
the Gram matrix for n, m = 0 .. N_MAX at 40 digits in each tree, and at
90 digits in the parent tree as the reference.  Every matrix is divided
by its G_00, as a tree may scale the weight as it likes.  Every case
has q beta < 1, the limit of the grid's weight ratio t_(j+1) / t_j
(q beta = q (1 + d (q - 1) / b)), so that its grid sum converges.  For
each tree the tool prints the deviation max |G_nm - R_nm| / sqrt(R_nn
R_mm) over the equal-parity entries, and the off-diagonal residual
max |G_nm| / sqrt(G_nn G_mm) over n != m.  A case whose two 40-digit
matrices are equal entry for entry is marked ``identical``, one whose
change deviates more than twice as far as the parent ``WORSE``, any
other ``ok``.  The exit code is 1 if any case is WORSE, else 0.
Each tree runs in its own ``python`` subprocess, through the
``tools/gram_accuracy.py`` of its own checkout when there is one, so that
each drives its own ``orthogonality_matrix`` across a change of its
signature.  That tool is handed this file's case list and must echo it
back; a tool that computes a case list of its own instead, or fails on
this one, is replaced by this file.  The run takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

# (family, parameters, q); a family is a FAMILIES name or "custom"
CASES = (
    ("ultraspherical", (0.4, 0.7), 0.9),
    ("ultraspherical", (-0.3, 1.2), 0.9),
    ("hermite", (0.3,), 0.9),
    ("hermite", (-5.0,), 0.9),
    ("custom", (-1.0, 1.0, -1.5, 0.2), 0.9),
    ("hermite", (-5.25,), 0.9),
    ("chebyshev5", (), 0.3),
    ("chebyshev6", (), 0.5),
    ("hermite", (-5.0,), 0.99),
    ("hermite", (0.5,), 0.3),
    ("hermite", (0.0,), 0.3),
    # gamma / beta = -2.22
    ("custom", (-1.0, 1.0, -6.0, 0.2), 0.5),
    ("ultraspherical", (0.4, 0.7), 0.999),
    # q beta = 0.986 and 0.998
    ("hermite", (0.5,), 0.9),
    ("ultraspherical", (0.4, 1.9), 0.99),
)
N_MAX = 10
DPS, REF_DPS = 40, 90


def label(case) -> str:
    name, params, q = case
    return f"{name}({', '.join(map(repr, params))}) q={q}"


def grams(cases, dps: int) -> list:
    """The Gram matrix of every case at ``dps`` digits, each entry as the
    exact pair (mantissa, exponent), from the qsympoly on sys.path."""
    import mpmath
    import qsympoly as qp
    from qsympoly.families import FAMILIES

    out = []
    for name, params, q in cases:
        ctx = qp.QContext(q)
        make = qp.make_custom if name == "custom" else FAMILIES[name][0]
        V = make(*params, ctx).V
        with mpmath.workdps(dps):
            mctx = qp.QContext(mpmath.mpf(q))
            fam = qp.make_custom(*(mpmath.mpf(v) for v in V.as_tuple()), mctx)
            G = qp.orthogonality_matrix(fam, N_MAX)
        out.append([[_pair(v._mpf_) for v in row] for row in G])
    return out


def _pair(raw) -> list:
    sign, man, exp, _ = raw
    return [-int(man) if sign else int(man), int(exp)]


def run(src: str, dps: int) -> list:
    """grams(CASES, dps) from the qsympoly in src, by
    SRC/../tools/gram_accuracy.py when that file exists and echoes CASES
    back, and by this file otherwise."""
    own = os.path.join(os.path.dirname(os.path.abspath(src)), "tools", "gram_accuracy.py")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    env.pop("QSYMPOLY_PRECISION", None)
    cases = json.loads(json.dumps(CASES))
    tools = ([own] if os.path.isfile(own) else []) + [__file__]
    for tool in tools:
        # only this file's own failure is shown: an older tool fails on a
        # case list without depths, and is then replaced
        res = subprocess.run([sys.executable, tool, "--grams", str(dps)],
                             input=json.dumps(cases), stdout=subprocess.PIPE, text=True,
                             stderr=None if tool == tools[-1] else subprocess.DEVNULL,
                             env=env, timeout=600)
        out = json.loads(res.stdout) if res.returncode == 0 else None
        if isinstance(out, dict) and out["cases"] == cases:
            break
    else:
        sys.exit(f"{tool} did not return the Gram matrices of the {len(CASES)} cases")
    if len(out["grams"]) != len(CASES):
        sys.exit(f"{tool} returned {len(out['grams'])} Gram matrices for {len(CASES)} cases")
    return out["grams"]


def deviation(G, R):
    """max |G_nm - R_nm| / sqrt(R_nn R_mm) over n <= m of equal parity."""
    from mpmath import sqrt

    size = len(R)
    return max(abs(G[n][m] - R[n][m]) / sqrt(R[n][n] * R[m][m])
               for n in range(size) for m in range(n, size, 2))


def off_diagonal(G):
    """max |G_nm| / sqrt(G_nn G_mm) over n < m of equal parity."""
    from mpmath import sqrt

    size = len(G)
    return max(abs(G[n][m]) / sqrt(G[n][n] * G[m][m])
               for n in range(size) for m in range(n + 2, size, 2))


def verdict(A, B, da, db) -> str:
    """identical, WORSE or ok for the parent's Gram A and the change's B,
    whose deviations from the reference are da and db."""
    if A == B:
        return "identical"
    return "WORSE" if db > 2 * da else "ok"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent_src", nargs="?")
    ap.add_argument("change_src", nargs="?")
    ap.add_argument("--grams", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.grams is not None:
        cases = json.load(sys.stdin)
        print(json.dumps({"cases": cases, "grams": grams(cases, args.grams)}))
        return 0
    if args.change_src is None:
        ap.error("PARENT_SRC and CHANGE_SRC are required")
    for src in (args.parent_src, args.change_src):
        if not os.path.isdir(os.path.join(src, "qsympoly")):
            ap.error(f"{src} has no qsympoly package")
    import mpmath

    mpmath.mp.dps = REF_DPS + 10

    def load(src, dps):
        grams = [[[mpmath.mpf(tuple(e)) for e in row] for row in G] for G in run(src, dps)]
        return [[[v / G[0][0] for v in row] for row in G] for G in grams]

    ref = load(args.parent_src, REF_DPS)
    old, new = load(args.parent_src, DPS), load(args.change_src, DPS)
    worse = 0
    for case, R, A, B in zip(CASES, ref, old, new):
        da, db = deviation(A, R), deviation(B, R)
        mark = verdict(A, B, da, db)
        worse += mark == "WORSE"
        print(f"{mark:9} {label(case)}: deviation {mpmath.nstr(da, 3)} -> "
              f"{mpmath.nstr(db, 3)}, off-diagonal {mpmath.nstr(off_diagonal(A), 4)} -> "
              f"{mpmath.nstr(off_diagonal(B), 4)}")
    print(f"{worse} of {len(CASES)} cases exceed twice the parent's deviation")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
