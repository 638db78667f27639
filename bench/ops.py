"""Running one benchmark operation and checking its output.

An operation goes through ``qsympoly.cli.main(argv)`` in-process with
stdout and stderr captured, or, for eval and quadrature, through direct
library calls.  Library functions are looked up as module attributes at
call time so that the tracer's wrappers are seen.

Each outcome is classified:

* ``malformed``: the output cannot be parsed, has the wrong shape, or its
  exit code contradicts its own verdict lines.  Any malformed operation
  makes the run's ``correct`` false.
* ``failed`` (with a reason): the operation raised, exited 2, reported
  disagreeing forms (the CLI's ``eval`` exit 1), emitted a non-finite
  value where a number was due, or a number missed the benchmark's
  independent check.
  A ``check`` operation's exit 1 is its verdict, not a failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter

CHECK_LINES = (
    "ode residual (scaled)",
    "orthogonality off-diagonal (scaled)",
    "odd-parity entries exactly zero",
    "norm: favard vs quadrature",
    "norm: closed form vs favard",
    "pearson ratio W(qx)/W(x)",
    "classical limit of C (raw error at eps=1e-4)",
    "classical limit of lambda (raw error at eps=1e-4)",
    "classical limit of poly (raw error at eps=1e-4)",
    "boundary A(alpha) W(alpha) = 0",
)
# lines whose verdict is exactly "residual <= tolerance"
PLAIN_VERDICT = {0, 1, 5, 9}
LINE_RE = re.compile(r"^(PASS|FAIL) (.*): max residual (\S+) \(tol (\S+)\)(?: \[.*\])?$")

EXPORT_POINTS = 101  # the CLI's default export grid
QUAD_TOL = 1e-8  # quadrature norm against the Favard product
REC_TOL = 1e-6  # polynomial values against the benchmark's own recurrence
FORM_DEV_FLOOR = 1e-17


class Malformed(Exception):
    """Output that cannot be parsed or contradicts itself."""


@dataclass
class Outcome:
    """What one operation returned, how long it took, and how it checked out."""

    seconds: float
    rc: int | None = None
    value: object = None  # what a library operation returned
    exc: str | None = None
    stdout: str = ""
    stderr: str = ""
    file: bytes | None = None
    failure: str | None = None
    malformed: bool = False
    values: int = 0  # numeric values delivered by a successful operation
    fail_lines: int = 0
    ortho_residual: float | None = None
    form_devs: array = field(default_factory=lambda: array("d"))  # log10, per eval point
    start: float = 0.0  # perf_counter() at the start and end of the operation
    end: float = 0.0
    ref: float = 0.0  # reference-kernel seconds around the operation


def make_family(op, ctx):
    from qsympoly import families

    if op.family == "ultraspherical":
        return families.make_ultraspherical(op.params["alpha"], op.params["beta"], ctx)
    if op.family == "hermite":
        return families.make_hermite(op.params["p"], ctx)
    return getattr(families, f"make_{op.family}")(ctx)


def quadrature_norm(op) -> float:
    """Relative norm square of phi_n as the Jackson-integral ratio
    int W* phi_n^2 / int W* over [-alpha, alpha]."""
    from qsympoly import jackson, qcore, sympoly, weights

    ctx = qcore.QContext(op.q)
    fam = make_family(op, ctx)
    V = fam.V
    cfg = jackson.JacksonConfig(ctx, n_terms=op.n_terms)
    phi = sympoly.build_monic(op.n, V, ctx)
    mass = jackson.q_integral_symmetric(lambda x: weights.weight_star(V, ctx, x),
                                        fam.support, cfg)
    num = jackson.q_integral_symmetric(lambda x: weights.weight_star(V, ctx, x) * phi(x) ** 2,
                                       fam.support, cfg)
    return num.value / mass.value


def library_eval(op) -> list:
    """The three forms that the CLI's ``eval`` computes and compares, at
    the points of the op's grid, as rows keyed like its JSON output.  The
    agreement check is the benchmark's own (``_check_eval``)."""
    from qsympoly import qcore, sympoly

    ctx = qcore.QContext(op.q)
    V = make_family(op, ctx).V
    n = op.n
    poly = sympoly.build_monic(n, V, ctx)
    mf = sympoly.monic_factor(n, V, ctx) if V.a != 0 and V.b != 0 else None
    lo, hi, count = op.grid
    step = (hi - lo) / (count - 1)
    rows = []
    for i in range(count):
        x = lo + step * i
        row = {"x": x, "value_recurrence": poly(x),
               "value_explicit": sympoly.eval_explicit_monic(n, V, ctx, x)}
        if mf is not None:
            row["value_hypergeometric"] = mf * sympoly.eval_hypergeometric(n, V, ctx, x)
        rows.append(row)
    return rows


LIBRARY = {"eval": library_eval, "quadrature": quadrature_norm}


def execute(op, tracer=None, op_id: int = 0) -> Outcome:
    """Run one operation; exceptions are caught and recorded, never raised."""
    from qsympoly import cli

    out, err = io.StringIO(), io.StringIO()
    rc = value = exc = None
    if tracer is not None:
        tracer.begin_op(op_id)
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op.argv is None:
                value = LIBRARY[op.kind](op)
            else:
                rc = cli.main(op.argv)
    except Exception as e:  # an operation's failure must not end the run
        exc = e
    t1 = perf_counter()
    if tracer is not None:
        tracer.end_op()
    if exc is not None:
        where = traceback.extract_tb(exc.__traceback__)[-1]
        exc = f"{type(exc).__name__} at {os.path.basename(where.filename)}:{where.lineno}: {exc}"
    res = Outcome(t1 - t0, rc, value, exc, out.getvalue(), err.getvalue(), start=t0, end=t1)
    if op.out_path and os.path.exists(op.out_path):
        with open(op.out_path, "rb") as fh:
            res.file = fh.read()
        os.remove(op.out_path)
    return res


# -- checks -----------------------------------------------------------------

def _recurrence_values(op, xs) -> list:
    """phi_n at xs by the three-term recurrence, independently of the
    CLI's monomial evaluation."""
    from qsympoly import qcore, sympoly

    ctx = qcore.QContext(op.q)
    V = make_family(op, ctx).V
    C = [sympoly.recurrence_C(k, V, ctx) for k in range(1, op.n)]
    out = []
    for x in xs:
        prev, cur = 1.0, x
        for ck in C:
            prev, cur = cur, x * cur - ck * prev
        out.append(cur if op.n else 1.0)
    return out


def _check_against_recurrence(op, rows, column) -> str | None:
    """Deviation relative to sup |phi_n| over the whole grid."""
    ref = _recurrence_values(op, [r["x"] for r in rows])
    scale = max(abs(v) for v in ref) or 1.0
    worst = max(abs(r[column] - v) for r, v in zip(rows, ref)) / scale
    return None if worst <= REC_TOL else "recurrence-mismatch"


def _load_rows(text, count, columns) -> dict:
    try:
        payload = json.loads(text)
        rows = payload["rows"]
        errors = payload["errors"]
    except (ValueError, KeyError, TypeError) as e:
        raise Malformed(f"unparseable JSON output ({e})") from None
    if len(rows) != count or any(set(columns) - set(r) for r in rows):
        raise Malformed(f"expected {count} rows with columns {columns}")
    return {"rows": rows, "errors": errors}


def _check_check(op, res: Outcome) -> str | None:
    lines = res.stdout.splitlines()
    parsed = [LINE_RE.match(line) for line in lines]
    if len(lines) != len(CHECK_LINES) or not all(parsed):
        raise Malformed("check output is not one verdict line per check")
    if tuple(m.group(2) for m in parsed) != CHECK_LINES:
        raise Malformed("check lines out of order or misnamed")
    fails = sum(m.group(1) == "FAIL" for m in parsed)
    if res.rc != (1 if fails else 0):
        raise Malformed(f"exit code {res.rc} with {fails} FAIL lines")
    res.fail_lines = fails
    res.values = len(lines)
    residuals = [float(m.group(3)) for m in parsed]
    res.ortho_residual = residuals[1]
    for i, m in enumerate(parsed):
        if m.group(1) != "PASS":
            continue
        if not math.isfinite(residuals[i]):
            return "pass-on-non-finite"
        if i in PLAIN_VERDICT and residuals[i] > float(m.group(4)) * (1 + 1e-3):
            return "pass-above-tolerance"
    return None


def _rel(u, v) -> float:
    big = max(abs(u), abs(v))
    return abs(u - v) / big if big else 0.0


def _check_eval(op, res: Outcome) -> str | None:
    """The CLI's ``eval`` (a known-defect probe) or a library evaluation."""
    cols = ("value_recurrence", "value_explicit", "value_hypergeometric")
    if op.argv is None:
        rows = res.value
        if any(not math.isfinite(r[c]) for r in rows for c in cols if c in r):
            return "non-finite-value"
    else:
        payload = _load_rows(res.stdout, op.grid[2], ("x",) + cols)
        rows = payload["rows"]
        if res.rc == 1:
            if not payload["errors"]:
                raise Malformed("eval exit 1 without an error entry")
            return "forms-disagree"
        if any(r[c] is None for r in rows for c in cols):
            return "non-finite-value"
    for r in rows:
        vals = [r[c] for c in cols if c in r]
        dev = max(_rel(u, v) for i, u in enumerate(vals) for v in vals[i + 1:])
        res.form_devs.append(math.log10(max(dev, FORM_DEV_FLOOR)))
    for c in cols:
        reason = _check_against_recurrence(op, rows, c) if c in rows[0] else None
        if reason:
            return f"{c} {reason}"
    res.values = sum(c in r for r in rows for c in cols)
    return None


def _check_table(op, res: Outcome) -> str | None:
    cols = ("n", "lambda", "delta", "C", "favard_norm", "classification")
    rows = _load_rows(res.stdout, op.n + 1, cols)["rows"]
    if [r["n"] for r in rows] != list(range(op.n + 1)):
        raise Malformed("table rows out of order")
    for prev, r in zip(rows, rows[1:]):
        f0, c, f1 = prev["favard_norm"], r["C"], r["favard_norm"]
        if None not in (f0, c, f1) and abs(f1 - f0 * c) > 1e-15 * abs(f1):
            return "favard-product-mismatch"
    numeric = ("lambda", "delta", "C", "favard_norm", "closed_form_norm")
    res.values = sum(r.get(c) is not None for r in rows for c in numeric)
    return None


def _check_export_poly(op, res: Outcome) -> str | None:
    rows = _load_rows(res.file, EXPORT_POINTS, ("x", "n", "value"))["rows"]
    if any(r["value"] is None for r in rows):
        return "non-finite-value"
    res.values = len(rows)
    return _check_against_recurrence(op, rows, "value")


def _check_export_weight(op, res: Outcome) -> str | None:
    payload = _load_rows(res.file, EXPORT_POINTS, ("x", "weight_star", "weight_limit"))
    explained = {(e.get("row"), e.get("column")) for e in payload["errors"]}
    values = 0
    for i, r in enumerate(payload["rows"]):
        for c in ("weight_star", "weight_limit"):
            if r[c] is None:
                if (i, c) not in explained:
                    return "unexplained-null"
            elif r[c] < 0:
                return "negative-weight"
            else:
                values += 1
    res.values = values
    return None


def _check_quadrature(op, res: Outcome) -> str | None:
    from qsympoly import families, qcore

    ctx = qcore.QContext(op.q)
    fav = families.favard_norm(op.n, make_family(op, ctx).V, ctx)
    res.values = 1
    return None if abs(res.value - fav) <= QUAD_TOL * abs(fav) else "quadrature-off-favard"


CHECKS = {
    "check": _check_check,
    "eval": _check_eval,
    "table": _check_table,
    "export-poly": _check_export_poly,
    "export-weight": _check_export_weight,
    "quadrature": _check_quadrature,
}


def classify(op, res: Outcome) -> Outcome:
    """Fill in failure/malformed and the per-operation metrics."""
    if res.exc is not None:
        res.failure = "raised " + res.exc.split(": ", 1)[0]
    elif res.rc == 2:
        res.failure = "exit-2"
    elif op.argv is not None and res.rc not in ((0, 1) if op.kind in ("check", "eval") else (0,)):
        res.failure, res.malformed = f"exit-{res.rc}", True
    else:
        try:
            res.failure = CHECKS[op.kind](op, res)
        except Malformed as e:
            res.failure, res.malformed = f"malformed: {e}", True
    if res.failure:
        res.values = 0
    return res
