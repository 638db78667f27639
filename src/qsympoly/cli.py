"""Command-line front end: evaluate, tabulate, verify, export.

Exit codes: 0 all good, 1 a numerical check failed beyond tolerance,
2 usage or precondition error.  Output is deterministic: identical
configurations produce byte-identical files (no timestamps, fixed key
order, floats printed with 17 significant digits so they re-read
bitwise).

The environment variable QSYMPOLY_PRECISION, when set to an integer
number of decimal digits above 17, switches all numeric inputs to
mpmath at that precision; values are then printed through mpmath with
the configured digit count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field

from .classical import LimitProbe, continuous_weight, limit_convergence_report
from .errors import QSymPolyError, ZeroDenominatorError
from .families import (
    FAMILIES,
    FamilyDescriptor,
    favard_norm,
    make_custom,
    norm_triple_report,
    orthogonality_matrix,
)
from .jackson import JacksonConfig
from .qcore import QContext, isfinite_
from .sympoly import (
    build_monic,
    classify_orthogonality,
    delta,
    eigenvalue,
    eval_explicit_monic,
    eval_hypergeometric,
    monic_factor,
    ode_residual_terms,
    recurrence_C,
)
from .weights import boundary_vanishing_check, pearson_ratio, weight_general

N_MAX_LIMIT = 64  # guard against precision exhaustion of the recurrences

CHECK_SUITES = ("ode", "ortho", "norm", "pearson", "limit", "boundary", "all")

DEFAULT_TOLS = {
    "ode": 1e-10,
    "ortho": 1e-10,
    "norm": 1e-8,
    "pearson": 1e-11,
    "limit": 1e-3,
    "boundary": 1e-12,
}


class CLIError(Exception):
    """Usage/validation failure; maps to exit code 2."""


@dataclass
class RunConfig:
    command: str
    ctx: QContext
    jackson: JacksonConfig
    family: FamilyDescriptor
    n: int | None = None
    n_max: int = 10
    xs: tuple = ()
    fmt: str = "json"
    out: str | None = None
    tol: float | None = None
    suite: str | None = None
    what: str | None = None
    precision: int | None = None
    meta: dict = field(default_factory=dict)


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
        sp.add_argument("--n-terms", type=int, default=256, help="Jackson grid depth")
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
    pc.add_argument("suite", choices=CHECK_SUITES)
    pc.add_argument("-n", type=int, default=None, help="max degree for the suite")
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
        try:
            return make_custom(a, b, c, d, ctx)
        except ValueError as exc:
            raise CLIError(str(exc)) from None
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
    step = (hi - lo) / (cnt - 1)
    return tuple(lo + step * i for i in range(cnt))


def _build_config(args) -> RunConfig:
    precision = None
    env = os.environ.get("QSYMPOLY_PRECISION")
    if env:
        try:
            precision = int(env)
        except ValueError:
            raise CLIError(f"QSYMPOLY_PRECISION must be an integer, got {env!r}")
        if precision < 1:
            raise CLIError("QSYMPOLY_PRECISION must be positive")
        import mpmath

        mpmath.mp.dps = max(precision, 15)
    real = _real_parser(precision)
    try:
        q = real(args.q)
    except Exception as exc:
        raise CLIError(f"could not parse q: {exc}") from None
    try:
        ctx = QContext(q)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    try:
        jackson = JacksonConfig(ctx, n_terms=args.n_terms)
    except ValueError as exc:
        raise CLIError(str(exc)) from None
    fam = _make_family(args, ctx, real)

    n_max = getattr(args, "n_max", 10)
    if n_max is not None and not (0 <= n_max <= N_MAX_LIMIT):
        raise CLIError(f"--n-max must lie in [0, {N_MAX_LIMIT}]")
    n = getattr(args, "n", None)
    if n is not None and not (0 <= n <= N_MAX_LIMIT):
        raise CLIError(f"-n must lie in [0, {N_MAX_LIMIT}]")

    xs: tuple = ()
    if getattr(args, "grid", None):
        xs = _parse_grid(args.grid, real)
    elif getattr(args, "x", None):
        try:
            xs = tuple(real(s) for s in args.x)
        except Exception as exc:
            raise CLIError(f"could not parse -x value: {exc}") from None
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
    meta = {
        "command": args.command,
        "family": fam.name,
        "params": raw_params,
        "q": args.q,
        "n_terms": jackson.n_terms,
    }
    return RunConfig(
        command=args.command,
        ctx=ctx,
        jackson=jackson,
        family=fam,
        n=n,
        n_max=n_max if n_max is not None else 10,
        xs=xs,
        fmt=args.fmt,
        out=args.out,
        tol=args.tol,
        suite=getattr(args, "suite", None),
        what=getattr(args, "what", None),
        precision=precision,
        meta=meta,
    )


def _emit(cfg: RunConfig, columns, rows, errors, stream):
    """Serialize rows (list of dicts) as JSON or CSV, deterministically."""
    if cfg.fmt == "csv":
        w = csv.writer(stream, lineterminator="\n")
        w.writerow(columns)
        for r in rows:
            w.writerow([fmt_num(r.get(c), cfg.precision) if not isinstance(r.get(c), str) else r.get(c) for c in columns])
        return
    payload = {"meta": cfg.meta, "rows": [], "errors": errors}
    for r in rows:
        clean = {}
        for c in columns:
            v = r.get(c)
            if v is None:
                clean[c] = None
            elif isinstance(v, str):
                clean[c] = v
            elif isinstance(v, int):
                clean[c] = v
            elif isinstance(v, float):
                clean[c] = v if isfinite_(v) else None
            else:
                clean[c] = fmt_num(v, cfg.precision)
        payload["rows"].append(clean)
    json.dump(payload, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _write_output(cfg: RunConfig, columns, rows, errors) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8", newline="") as fh:
            _emit(cfg, columns, rows, errors, fh)
    else:
        _emit(cfg, columns, rows, errors, sys.stdout)


def _rel_dev(u, v, floor):
    return abs(u - v) / max(abs(u), abs(v), floor)


def cmd_eval(cfg: RunConfig) -> int:
    if not cfg.xs:
        raise CLIError("eval needs -x or --grid")
    n = cfg.n
    V = cfg.family.V
    ctx = cfg.ctx
    tol = cfg.tol if cfg.tol is not None else 1e-10
    has_hyp = V.a != 0 and V.b != 0
    mf = monic_factor(n, V, ctx) if has_hyp else None
    poly = build_monic(n, V, ctx)
    rows = []
    errors = []
    mismatch = False
    for x in cfg.xs:
        vr = poly(x)
        ve = eval_explicit_monic(n, V, ctx, x)
        row = {"n": n, "x": x, "value_recurrence": vr, "value_explicit": ve}
        scale = max(poly.magnitude(x), 1e-300)
        if _rel_dev(vr, ve, 1e-3 * scale) > tol:
            mismatch = True
            errors.append({"x": fmt_num(x, cfg.precision), "error": "explicit form disagrees with recurrence"})
        if has_hyp:
            vh = mf * eval_hypergeometric(n, V, ctx, x)
            row["value_hypergeometric"] = vh
            if _rel_dev(vr, vh, 1e-3 * scale) > tol:
                mismatch = True
                errors.append({"x": fmt_num(x, cfg.precision), "error": "2phi1 form disagrees with recurrence"})
        rows.append(row)
    columns = ["n", "x", "value_recurrence", "value_explicit"]
    if has_hyp:
        columns.append("value_hypergeometric")
    _write_output(cfg, columns, rows, errors)
    return 1 if mismatch else 0


def cmd_table(cfg: RunConfig) -> int:
    V = cfg.family.V
    ctx = cfg.ctx
    cls = classify_orthogonality(V, ctx, max(cfg.n_max, 1))
    rows = []
    errors = []
    have_closed = cfg.family.closed_norm is not None
    for n in range(cfg.n_max + 1):
        row = {"n": n, "classification": cls.kind}
        try:
            row["lambda"] = eigenvalue(n, V, ctx)
            row["delta"] = delta(n, V, ctx)
            row["C"] = recurrence_C(n, V, ctx)
            row["favard_norm"] = favard_norm(n, V, ctx)
        except QSymPolyError as exc:
            errors.append({"n": n, "error": str(exc)})
        if have_closed:
            try:
                row["closed_form_norm"] = cfg.family.norm_square(n)
            except QSymPolyError as exc:
                errors.append({"n": n, "error": f"closed-form norm: {exc}"})
        rows.append(row)
    columns = ["n", "lambda", "delta", "C", "favard_norm"]
    if have_closed:
        columns.append("closed_form_norm")
    columns.append("classification")
    _write_output(cfg, columns, rows, errors)
    return 0


def _worst(residuals):
    """The largest residual, or NaN as soon as one residual is NaN.

    max() keeps its running value when compared with NaN, so a NaN
    residual would otherwise vanish from the reduction and pass.
    """
    worst = 0.0
    for r in residuals:
        if r != r:
            return r
        worst = max(worst, r)
    return worst


# Each suite takes the run configuration and the Gram matrix of the ortho
# suite (None when that suite is not selected).

def _check_lines_ode(cfg, gram) -> list:
    fam = cfg.family
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["ode"]
    n_hi = cfg.n if cfg.n is not None else cfg.n_max
    support = fam.support if fam.support is not None else 1.0
    residuals = []
    for n in range(n_hi + 1):
        for i in range(1, 11):
            x = support * i / 11
            t1, t2, t3 = ode_residual_terms(n, fam.V, cfg.ctx, x)
            scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
            residuals.append(abs(t1 + t2 + t3) / scale)
    worst = _worst(residuals)
    return [("ode residual (scaled)", worst, tol, worst <= tol, "")]


def _check_lines_ortho(cfg, G) -> list:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["ortho"]
    size = cfg.n_max + 1
    parity_ok = all(G[i][j] == 0 for i in range(size) for j in range(i + 1, size, 2))
    worst = _worst(
        abs(G[i][j]) / (abs(G[i][i] * G[j][j]) ** 0.5)
        for i in range(size)
        for j in range(i + 2, size, 2)
    )
    return [
        ("orthogonality off-diagonal (scaled)", worst, tol, worst <= tol, ""),
        ("odd-parity entries exactly zero", 0.0 if parity_ok else 1.0, 0.0,
         parity_ok, ""),
    ]


def _check_lines_norm(cfg, gram) -> list:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["norm"]
    n_hi = min(cfg.n_max, 8)
    report = norm_triple_report(cfg.family, n_hi, cfg.jackson, pair_tol=tol, gram=gram)
    lines = []
    worst_pair = _worst(r.favard_vs_quadrature for r in report)
    lines.append(
        ("norm: favard vs quadrature", worst_pair, tol, worst_pair <= tol, "")
    )
    flagged = [r for r in report if r.discrepancy_flagged]
    closed_ok = all(r.ok for r in report)
    note = ""
    if flagged:
        note = (
            f"closed-form discrepancy flagged at n={[r.n for r in flagged]}; "
            "favard and quadrature agree, both values reported"
        )
    worst_closed = _worst(
        r.closed_vs_favard for r in report if r.closed_vs_favard is not None and not r.discrepancy_flagged
    )
    lines.append(("norm: closed form vs favard", worst_closed, tol, closed_ok, note))
    return lines


def _check_lines_pearson(cfg, gram) -> list:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["pearson"]
    fam = cfg.family
    if fam.support is None:
        raise CLIError("pearson check needs a family with a support endpoint")
    q = cfg.ctx.q
    residuals = []
    for j in range(1, 21):
        x = fam.support * q**j
        lhs = weight_general(fam.V, cfg.ctx, q * x) / weight_general(fam.V, cfg.ctx, x)
        rhs = pearson_ratio(fam.V, cfg.ctx, x)
        residuals.append(abs(lhs - rhs) / abs(rhs))
    worst = _worst(residuals)
    return [("pearson ratio W(qx)/W(x)", worst, tol, worst <= tol, "")]


def _check_lines_limit(cfg, gram) -> list:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["limit"]
    subject = cfg.family.rebuild or cfg.family.V
    probe = LimitProbe()
    n_hi = cfg.n if cfg.n is not None else min(cfg.n_max, 10)
    lines = []
    for qty in ("C", "lambda", "poly"):
        reports = []
        unevaluable = []
        for n in range(1, n_hi + 1):
            try:
                reports.append(limit_convergence_report(
                    qty, subject, n, probe, x=0.3 if qty == "poly" else None
                ))
            except ZeroDenominatorError:
                # e.g. the even hermite polynomials at p = 1/2, whose
                # explicit form has no finite q -> 1 limit
                unevaluable.append(n)
        worst = _worst(rep.raw_errors[-1] for rep in reports)
        mono = all(rep.monotone for rep in reports)
        name = f"classical limit of {qty} (raw error at eps=1e-4)"
        notes = [] if mono else ["errors not monotone along the sweep"]
        if unevaluable:
            notes.append(f"limit not evaluable at n={unevaluable}")
        ok = worst <= tol and mono and not unevaluable
        lines.append((name, worst, tol, ok, "; ".join(notes)))
    return lines


def _check_lines_boundary(cfg, gram) -> list:
    tol = cfg.tol if cfg.tol is not None else DEFAULT_TOLS["boundary"]
    spec = cfg.family.weight_spec()
    rep = boundary_vanishing_check(spec, cfg.ctx, tol=tol)
    return [("boundary A(alpha) W(alpha) = 0", rep.ratio, tol, rep.ok, "")]


def cmd_check(cfg: RunConfig) -> int:
    suites = {
        "ode": _check_lines_ode,
        "ortho": _check_lines_ortho,
        "norm": _check_lines_norm,
        "pearson": _check_lines_pearson,
        "limit": _check_lines_limit,
        "boundary": _check_lines_boundary,
    }
    selected = list(suites) if cfg.suite == "all" else [cfg.suite]
    lines = []
    gram = None
    for s in selected:
        if s == "ortho":
            # assembled once: the norm suite reads its leading block
            gram = orthogonality_matrix(cfg.family, cfg.n_max, cfg.jackson)
        lines.extend(suites[s](cfg, gram))
    all_ok = all(ok for (_, _, _, ok, _) in lines)
    rows = []
    for name, residual, tol, ok, note in lines:
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}: max residual {residual:.3e} (tol {tol:.1e})"
              + (f" [{note}]" if note else ""))
        rows.append({"check": name, "residual": residual, "tolerance": tol,
                     "passed": ok, "note": note})
    if cfg.out:
        _write_output(cfg, ["check", "residual", "tolerance", "passed", "note"],
                      rows, [])
    return 0 if all_ok else 1


def cmd_export(cfg: RunConfig) -> int:
    fam = cfg.family
    ctx = cfg.ctx
    errors = []
    if cfg.what == "weight":
        if fam.support is None:
            raise CLIError("weight export needs a family with a support endpoint")
        xs = cfg.xs or _default_grid(fam)
        rows = []
        for i, x in enumerate(xs):
            row = {"x": x}
            try:
                w = fam.weight_spec().star(x)
                if not isfinite_(w):
                    raise QSymPolyError(f"non-finite weight value {w!r}")
                row["weight_star"] = w
            except (QSymPolyError, ValueError) as exc:
                row["weight_star"] = None
                errors.append({"row": i, "column": "weight_star", "error": str(exc)})
            try:
                wl = continuous_weight(fam, x)
                if not isfinite_(wl):
                    raise QSymPolyError(f"non-finite weight value {wl!r}")
                row["weight_limit"] = wl
            except (QSymPolyError, ValueError) as exc:
                row["weight_limit"] = None
                errors.append({"row": i, "column": "weight_limit", "error": str(exc)})
            rows.append(row)
        _write_output(cfg, ["x", "weight_star", "weight_limit"], rows, errors)
        return 0
    # polynomial grid
    n = cfg.n if cfg.n is not None else 4
    poly = build_monic(n, fam.V, ctx)
    xs = cfg.xs or _default_grid(fam)
    rows = [{"x": x, "n": n, "value": poly(x)} for x in xs]
    _write_output(cfg, ["x", "n", "value"], rows, errors)
    return 0


def _default_grid(fam) -> tuple:
    hi = fam.support if fam.support is not None else 1.0
    lo = -hi
    cnt = 101
    step = (hi - lo) / (cnt - 1)
    return tuple(lo + step * i for i in range(cnt))


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        cfg = _build_config(args)
        handler = {
            "eval": cmd_eval,
            "table": cmd_table,
            "check": cmd_check,
            "export": cmd_export,
        }[cfg.command]
        return handler(cfg)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
