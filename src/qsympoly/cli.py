"""Command-line front end: evaluate, tabulate, verify, export.

Exit codes: 0 all good, 1 a numerical check failed beyond tolerance,
2 usage or precondition error.  Output is deterministic: identical
configurations produce byte-identical files (no timestamps, fixed key
order, floats printed with 17 significant digits so they re-read
bitwise).

The environment variable QSYMPOLY_PRECISION, when set to a positive
integer number of decimal digits, switches all numeric inputs to mpmath
at max(digits, 15) digits for the duration of the command; values are
then printed through mpmath with max(digits, 17) significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import sys

from .classical import continuous_weight, limit_convergence_report
from .errors import DivergenceError, QSymPolyError, ZeroDenominatorError
from .families import (
    FAMILIES,
    FamilyDescriptor,
    make_custom,
    norm_triple_report,
    orthogonality_matrix,
)
from .qcore import QContext, isfinite_, max_or_nan
from .sympoly import (
    _C_terms,
    build_monic,
    classify_orthogonality,
    delta,
    eigenvalue,
    eval_explicit_monic,
    eval_hypergeometric,
    monic_factor,
    monic_ladder,
    ode_terms,
)
from .weights import boundary_vanishing_check, pearson_ratio, weight_general, weight_star

N_MAX_LIMIT = 64  # guard against precision exhaustion of the recurrences

class CLIError(ValueError):
    """Usage/validation failure; maps to exit code 2."""


def _real_parser(precision):
    if precision is None:
        return float
    import mpmath

    return lambda s: mpmath.mpf(s)


def fmt_num(v, precision=None):
    """Round-trippable text for a number: 17 significant digits for floats."""
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return format(v, ".17g")
    import mpmath

    return mpmath.nstr(v, max(17, (precision or 17)), strip_zeros=False)


@functools.cache  # one per process: parse_args keeps no state between calls
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qsympoly",
        description="Symmetric q-orthogonal polynomials: evaluate, tabulate, "
        "verify and export.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument(
            "--family",
            choices=list(FAMILIES),
            default="ultraspherical",
            help="named family; ignored with --custom",
        )
        sp.add_argument("--custom", metavar="A,B,C,D", help="explicit characteristic vector")
        sp.add_argument("--alpha", default="0.4", help="ultraspherical alpha")
        sp.add_argument("--beta", default="0.7", help="ultraspherical beta")
        sp.add_argument("-p", "--hermite-p", dest="p", default="0", help="hermite parameter p")
        sp.add_argument("-q", default="0.5", help="base q in (0,1)")
        sp.add_argument("--n-terms", type=int, default=256,
                        help="Jackson grid depth; only echoed in the JSON meta, since "
                        "the Gram sums the whole grid exactly")
        sp.add_argument("--tol", type=float, default=None, help="tolerance override")
        sp.add_argument("--format", dest="fmt", choices=["json", "csv"], default="json")
        sp.add_argument("-o", "--output", dest="out", default=None, help="output path")

    pe = sub.add_parser("eval", help="evaluate one polynomial by all available forms")
    add_common(pe)
    pe.add_argument("-n", type=int, required=True, help="polynomial degree")
    pe.add_argument("-x", action="append", default=None, help="evaluation point (repeatable)")
    pe.add_argument("--grid", metavar="LO:HI:COUNT", help="linear evaluation grid")

    pt = sub.add_parser("table", help="tabulate eigenvalues, recurrence data and norms")
    add_common(pt)
    pt.add_argument("--n-max", type=int, default=10)

    pc = sub.add_parser("check", help="run a verification suite")
    add_common(pc)
    pc.add_argument("suite", choices=(*CHECK_SUITES, "all"))
    pc.add_argument("--n-max", type=int, default=10)

    px = sub.add_parser("export", help="write weight or polynomial grids for plotting")
    add_common(px)
    px.add_argument("what", choices=["weight", "poly"])
    px.add_argument("-n", type=int, default=4, help="polynomial degree (poly export)")
    px.add_argument("--grid", metavar="LO:HI:COUNT", default=None)

    return p


def _make_family(args, ctx, real) -> FamilyDescriptor:
    if args.custom:
        parts = args.custom.split(",")
        if len(parts) != 4:
            raise CLIError("--custom expects four comma-separated numbers a,b,c,d")
        try:
            a, b, c, d = (real(s.strip()) for s in parts)
        except Exception as exc:
            raise CLIError(f"could not parse --custom: {exc}") from None
        return make_custom(a, b, c, d, ctx)
    factory, names = FAMILIES[args.family]
    return factory(*(real(getattr(args, k)) for k in names), ctx)


def _parse_grid(spec: str, real) -> tuple:
    try:
        lo_s, hi_s, cnt_s = spec.split(":")
        lo, hi, cnt = real(lo_s), real(hi_s), int(cnt_s)
    except Exception:
        raise CLIError(f"malformed grid spec {spec!r}; expected LO:HI:COUNT") from None
    if cnt < 2:
        raise CLIError("grid COUNT must be at least 2")
    return _linear_grid(lo, hi, cnt)


def _linear_grid(lo, hi, cnt: int) -> tuple:
    step = (hi - lo) / (cnt - 1)
    return tuple(lo + step * i for i in range(cnt))


def _env_precision() -> int | None:
    """QSYMPOLY_PRECISION as a digit count, or None when it is unset."""
    env = os.environ.get("QSYMPOLY_PRECISION")
    if not env:
        return None
    try:
        precision = int(env)
    except ValueError:
        raise CLIError(f"QSYMPOLY_PRECISION must be an integer, got {env!r}") from None
    if precision < 1:
        raise CLIError("QSYMPOLY_PRECISION must be positive")
    return precision


def _build_config(args, precision) -> None:
    """Validate the parsed arguments and attach what derives from them:
    the family ``fam`` (which carries the context of q), the points
    ``xs``, the ``precision`` and the output header ``meta``."""
    real = _real_parser(precision)
    try:
        q = real(args.q)
    except Exception as exc:
        raise CLIError(f"could not parse q: {exc}") from None
    ctx = QContext(q)
    if args.n_terms < 1:
        raise CLIError("n_terms must be at least 1")
    fam = _make_family(args, ctx, real)

    for flag, n in (("--n-max", getattr(args, "n_max", None)), ("-n", getattr(args, "n", None))):
        if n is not None and not (0 <= n <= N_MAX_LIMIT):
            raise CLIError(f"{flag} must lie in [0, {N_MAX_LIMIT}]")
    # NaN fails every comparison, so a check against a NaN bound would pass
    if args.tol is not None and not (isfinite_(args.tol) and args.tol >= 0):
        raise CLIError(f"--tol must be finite and nonnegative, got {args.tol!r}")

    xs: tuple = ()
    if getattr(args, "grid", None):
        xs = _parse_grid(args.grid, real)
    elif getattr(args, "x", None):
        try:
            xs = tuple(real(s) for s in args.x)
        except Exception as exc:
            raise CLIError(f"could not parse -x value: {exc}") from None
    if not all(map(isfinite_, xs)):  # only eval and export take points
        raise CLIError(f"{'--grid' if args.grid else '-x'} points must be finite")
    if xs and fam.support is not None:
        bound = fam.support * (1 + 1e-12)
        if any(abs(x) > bound for x in xs):
            raise CLIError(
                f"grid bounds exceed the family support [-{fam.support}, {fam.support}]"
            )

    # meta echoes the command-line inputs verbatim
    if args.custom:
        raw_params = {"custom": args.custom}
    else:
        raw_params = {k: getattr(args, k) for k in FAMILIES[args.family][1]}
    args.fam, args.xs, args.precision = fam, xs, precision
    args.meta = {
        "command": args.command,
        "family": fam.name,
        "params": raw_params,
        "q": args.q,
        "n_terms": args.n_terms,
    }


def _emit(args, columns, rows, errors, stream):
    """Serialize rows (list of dicts) as JSON or CSV, deterministically."""
    if args.fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([fmt_num(r.get(c), args.precision) if not isinstance(r.get(c), str) else r.get(c) for c in columns])
        return
    payload = {"meta": args.meta, "rows": [], "errors": errors}
    for r in rows:
        clean = {}
        for c in columns:
            v = r.get(c)
            if v is None:
                clean[c] = None
            elif isinstance(v, (str, int)):
                clean[c] = v
            elif isinstance(v, float):
                clean[c] = v if isfinite_(v) else None
            else:
                clean[c] = fmt_num(v, args.precision)
        payload["rows"].append(clean)
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _write_output(args, columns, rows, errors) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _emit(args, columns, rows, errors, fh)
    else:
        _emit(args, columns, rows, errors, sys.stdout)


def _rel_dev(u, v, floor):
    return abs(u - v) / max(abs(u), abs(v), floor)


def cmd_eval(args) -> int:
    if not args.xs:
        raise CLIError("eval needs -x or --grid")
    n = args.n
    V, ctx = args.fam.V, args.fam.ctx
    tol = args.tol if args.tol is not None else 1e-10
    # (column, name in the error text, evaluation at x), checked in this order
    forms = [("value_explicit", "explicit", lambda x: eval_explicit_monic(n, V, ctx, x))]
    if V.a != 0 and V.b != 0:
        mf = monic_factor(n, V, ctx)
        forms.append(("value_hypergeometric", "2phi1",
                      lambda x: mf * eval_hypergeometric(n, V, ctx, x)))
    poly = build_monic(n, V, ctx)
    rows = []
    errors = []
    mismatch = False
    for x in args.xs:
        vr = poly(x)
        row = {"n": n, "x": x, "value_recurrence": vr}
        scale = max(poly.magnitude(x), 1e-300)
        for column, form_name, form in forms:
            v = row[column] = form(x)
            # a NaN deviation is not within tol
            if not _rel_dev(vr, v, 1e-3 * scale) <= tol:
                mismatch = True
                errors.append({"x": fmt_num(x, args.precision),
                               "error": f"{form_name} form disagrees with recurrence"})
        rows.append(row)
    columns = ["n", "x", "value_recurrence"] + [column for column, _, _ in forms]
    _write_output(args, columns, rows, errors)
    return 1 if mismatch else 0


def cmd_table(args) -> int:
    V, ctx = args.fam.V, args.fam.ctx
    cls = classify_orthogonality(V, ctx, max(args.n_max, 1))
    C_terms = _C_terms(V, ctx)
    rows = []
    errors = []
    have_closed = args.fam.closed_norm is not None
    # C_n is read once per row, for its column and for favard_norm(n), which
    # is carried over from n - 1 in the same order; once a C_k raises, every
    # later product raises with it
    fav, fav_error = 1, None
    for n in range(args.n_max + 1):
        row = {"n": n, "classification": cls.kind}
        try:
            C, C_error = C_terms(n)[0], None
        except QSymPolyError as exc:
            C, C_error = None, exc
        if n and fav_error is None:
            if C_error is None:
                fav = fav * C
            fav_error = C_error
        try:
            row["lambda"] = eigenvalue(n, V, ctx)
            row["delta"] = delta(n, V, ctx)
            if C_error is not None:
                raise C_error
            row["C"] = C
            if fav_error is not None:
                raise fav_error
            row["favard_norm"] = fav
        except QSymPolyError as exc:
            errors.append({"n": n, "error": str(exc)})
        if have_closed:
            try:
                row["closed_form_norm"] = args.fam.closed_norm(n)
            except QSymPolyError as exc:
                errors.append({"n": n, "error": f"closed-form norm: {exc}"})
        rows.append(row)
    columns = ["n", "lambda", "delta", "C", "favard_norm"]
    if have_closed:
        columns.append("closed_form_norm")
    columns.append("classification")
    _write_output(args, columns, rows, errors)
    return 0


# Each suite takes the parsed arguments, its tolerance and the Gram matrix
# at --n-max, which is None until the ortho or the norm suite needs it.
# The lines of the suites that read the Gram, which all FAIL when its
# Jackson sum diverges:
GRAM_LINES = {
    "ortho": ("orthogonality off-diagonal (scaled)", "odd-parity entries exactly zero"),
    "norm": ("norm: favard vs quadrature", "norm: closed form vs favard"),
}

def _check_lines_ode(args, tol, gram) -> list:
    fam = args.fam
    # sample points in the type of q, so mpf runs do not round them to float
    support = (fam.support if fam.support is not None else 1.0) + 0 * fam.ctx.q
    residuals = []
    for poly in monic_ladder(args.n_max, fam.V, fam.ctx):
        terms = ode_terms(poly, fam.V, fam.ctx)
        for i in range(1, 11):
            t1, t2, t3 = terms(support * i / 11)
            scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
            residuals.append(abs(t1 + t2 + t3) / scale)
    worst = max_or_nan(residuals)
    return [("ode residual (scaled)", worst, tol, worst <= tol, "")]


def _check_lines_ortho(args, tol, G) -> list:
    size = args.n_max + 1
    parity_ok = all(G[i][j] == 0 for i in range(size) for j in range(i + 1, size, 2))
    root = [abs(G[i][i]) ** 0.5 for i in range(size)]
    worst = max_or_nan(
        abs(G[i][j]) / (root[i] * root[j])
        for i in range(size)
        for j in range(i + 2, size, 2)
    )
    off_diagonal, parity = GRAM_LINES["ortho"]
    return [
        (off_diagonal, worst, tol, worst <= tol, ""),
        (parity, 0.0 if parity_ok else 1.0, 0.0, parity_ok, ""),
    ]


def _check_lines_norm(args, tol, gram) -> list:
    report = norm_triple_report(args.fam, min(args.n_max, 8), gram, pair_tol=tol)
    pair_name, closed_name = GRAM_LINES["norm"]
    worst_pair = max_or_nan(r.favard_vs_quadrature for r in report)
    lines = [(pair_name, worst_pair, tol, worst_pair <= tol, "")]
    flagged = [r for r in report if r.discrepancy_flagged]
    closed_ok = all(r.ok for r in report)
    # a flagged degree without a closed-form value was never compared
    deviating = [r for r in flagged if r.closed_form is not None]
    unevaluable = [r.n for r in flagged if r.closed_form is None]
    notes = []
    if deviating:
        ratios = ", ".join(f"{float(r.closed_form / r.favard):.6g} at n={r.n}" for r in deviating)
        notes.append(f"closed-form discrepancy: closed form / Favard = {ratios}")
    if unevaluable:
        notes.append(f"closed form not evaluable at n={unevaluable}")
    if flagged:
        agree = "agree" if worst_pair <= tol else "disagree"
        notes.append(f"favard and quadrature {agree}"
                     + (", both values reported" if deviating else ""))
    note = "; ".join(notes)
    worst_closed = max_or_nan(
        r.closed_vs_favard for r in report if r.closed_vs_favard is not None and not r.discrepancy_flagged
    )
    lines.append((closed_name, worst_closed, tol, closed_ok, note))
    return lines


def _check_lines_pearson(args, tol, gram) -> list:
    fam = args.fam
    if fam.support is None:
        raise CLIError("pearson check needs a family with a support endpoint")
    ctx = fam.ctx
    q = ctx.q
    # q x_j and x_(j+1) are often the same number: form each weight once
    weight = functools.cache(functools.partial(weight_general, fam.V, ctx))
    residuals = []
    for j in range(1, 21):
        x = fam.support * q**j
        w = weight(x)
        if w == 0:
            raise QSymPolyError(f"weight W({x!r}) underflows to 0")
        lhs = weight(q * x) / w
        rhs = pearson_ratio(fam.V, ctx, x)
        residuals.append(abs(lhs - rhs) / abs(rhs))
    worst = max_or_nan(residuals)
    return [("pearson ratio W(qx)/W(x)", worst, tol, worst <= tol, "")]


def _check_lines_limit(args, tol, gram) -> list:
    # every report rebuilds the family at the same contexts: build each once
    subject = functools.cache(args.fam.rebuild)
    lines = []
    for qty in ("C", "lambda", "poly"):
        reports = []
        unevaluable = []
        for n in range(1, min(args.n_max, 10) + 1):
            try:
                reports.append(limit_convergence_report(
                    qty, subject, n, x=0.3 if qty == "poly" else None
                ))
            except ZeroDenominatorError:
                # e.g. the even hermite polynomials at p = 1/2, whose
                # explicit form has no finite q -> 1 limit
                unevaluable.append(n)
        worst = max_or_nan(rep.raw_errors[-1] for rep in reports)
        mono = all(rep.monotone for rep in reports)
        name = f"classical limit of {qty} (raw error at eps=1e-4)"
        notes = [] if mono else ["errors not monotone along the sweep"]
        if unevaluable:
            notes.append(f"limit not evaluable at n={unevaluable}")
        ok = worst <= tol and mono and not unevaluable
        lines.append((name, worst, tol, ok, "; ".join(notes)))
    return lines


def _check_lines_boundary(args, tol, gram) -> list:
    fam = args.fam
    if fam.support is None:
        raise CLIError(f"family {fam.name!r} has no known support endpoint")
    rep = boundary_vanishing_check(fam.V, fam.support, fam.ctx, tol)
    return [("boundary A(alpha) W(alpha) = 0", rep.ratio, tol, rep.ok, "")]


# name -> (suite, default tolerance), in the order `check all` runs them
CHECK_SUITES = {
    "ode": (_check_lines_ode, 1e-10),
    "ortho": (_check_lines_ortho, 1e-10),
    "norm": (_check_lines_norm, 1e-8),
    "pearson": (_check_lines_pearson, 1e-11),
    "limit": (_check_lines_limit, 1e-3),
    "boundary": (_check_lines_boundary, 1e-12),
}


def cmd_check(args) -> int:
    selected = list(CHECK_SUITES) if args.suite == "all" else [args.suite]
    lines = []
    gram = None
    for s in selected:
        suite, default_tol = CHECK_SUITES[s]
        tol = args.tol if args.tol is not None else default_tol
        if s in GRAM_LINES:
            if gram is None:
                # assembled once: the norm suite reads its leading block
                try:
                    gram = orthogonality_matrix(args.fam, args.n_max)
                except DivergenceError as exc:
                    gram = exc
            if isinstance(gram, DivergenceError):
                lines.extend((name, float("inf"), tol, False, str(gram)) for name in GRAM_LINES[s])
                continue
        lines.extend(suite(args, tol, gram))
    all_ok = all(ok for (_, _, _, ok, _) in lines)
    rows = []
    for name, residual, tol, ok, note in lines:
        status = "PASS" if ok else "FAIL"
        # mpf residuals under QSYMPOLY_PRECISION have no "e" format
        print(f"{status} {name}: max residual {float(residual):.3e} (tol {tol:.1e})"
              + (f" [{note}]" if note else ""))
        rows.append({"check": name, "residual": residual, "tolerance": tol,
                     "passed": ok, "note": note})
    if args.out:
        _write_output(args, ["check", "residual", "tolerance", "passed", "note"],
                      rows, [])
    return 0 if all_ok else 1


def cmd_export(args) -> int:
    fam = args.fam
    ctx = fam.ctx
    errors = []
    if args.what == "weight":
        if fam.support is None:
            raise CLIError("weight export needs a family with a support endpoint")
        xs = args.xs or _default_grid(fam)
        weights = (("weight_star", lambda x: weight_star(fam.V, ctx, x)),
                   ("weight_limit", lambda x: continuous_weight(fam, x)))
        rows = []
        for i, x in enumerate(xs):
            row = {"x": x}
            for column, weight in weights:
                try:
                    w = weight(x)
                    if not isfinite_(w):
                        raise QSymPolyError(f"non-finite weight value {w!r}")
                    row[column] = w
                except (QSymPolyError, ValueError) as exc:
                    row[column] = None
                    errors.append({"row": i, "column": column, "error": str(exc)})
            rows.append(row)
        _write_output(args, ["x", "weight_star", "weight_limit"], rows, errors)
        return 0
    # polynomial grid
    poly = build_monic(args.n, fam.V, ctx)
    xs = args.xs or _default_grid(fam)
    rows = [{"x": x, "n": args.n, "value": poly(x)} for x in xs]
    _write_output(args, ["x", "n", "value"], rows, errors)
    return 0


def _default_grid(fam) -> tuple:
    hi = fam.support if fam.support is not None else 1.0
    return _linear_grid(-hi, hi, 101)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        precision = _env_precision()
        scope = contextlib.nullcontext()
        if precision is not None:
            import mpmath

            # the precision holds for this call only, not for the process
            scope = mpmath.workdps(max(precision, 15))
        with scope:
            _build_config(args, precision)
            handler = {
                "eval": cmd_eval,
                "table": cmd_table,
                "check": cmd_check,
                "export": cmd_export,
            }[args.command]
            return handler(args)
    except QSymPolyError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
