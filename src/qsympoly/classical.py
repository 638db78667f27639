"""q -> 1 limit targets and convergence probes.

The symmetric family degenerates, as q tends to 1, to the continuous
symmetric polynomials solving

    x^2 (a x^2 + b) y'' + x (c x^2 + d) y' - (n (c + (n-1) a) x^2 + sigma_n d) y = 0,

with closed-form limits for the recurrence coefficient and eigenvalue.
This module provides those targets plus a sweep-and-extrapolate probe
that quantifies how the q-quantities approach them.

Limit verification is numeric by design: quantities are evaluated along
q = 1 - eps and Richardson-extrapolated to eps = 0.  Near q = 1 the
q-shifted factorials lose floating-point accuracy; sweeps below
eps = 1e-5 or so should be run at elevated precision (mpmath), which the
duck-typed arithmetic supports but does not switch on automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import TruncationError, ZeroDenominatorError
from .families import FamilyDescriptor
from .qcore import QContext, exp_, log_, sigma_parity
from .sympoly import CharVector, eigenvalue, eval_explicit, recurrence_C

__all__ = [
    "LimitProbe",
    "LimitReport",
    "continuous_poly_coeffs",
    "continuous_poly",
    "continuous_C_limit",
    "continuous_lambda_limit",
    "continuous_ode_residual",
    "continuous_char_vector",
    "continuous_weight",
    "limit_convergence_report",
]

# reference abscissa for weight-ratio comparisons; inside every family's support
WEIGHT_REF_POINT = 0.5


@dataclass(frozen=True)
class LimitProbe:
    """Sweep q = 1 - eps over the given eps values, largest first."""

    eps_values: tuple = (1e-2, 1e-3, 1e-4)
    extrapolation_order: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_values", tuple(self.eps_values))
        if not all(0 < e < 0.5 for e in self.eps_values):
            raise ValueError("eps values must lie in (0, 0.5)")
        if any(
            e2 >= e1 for e1, e2 in zip(self.eps_values, self.eps_values[1:])
        ):
            raise ValueError("eps values must be strictly decreasing")
        if self.extrapolation_order < 1:
            raise ValueError("extrapolation order must be at least 1")


def continuous_poly_coeffs(n: int, V: CharVector) -> tuple:
    """Monomial coefficients of the continuous symmetric polynomial:

        sum_k binom(M, k) x^(n-2k) prod_{i<M-k} ((2i+e+2M) a + c) / ((2i+e+2) b + d)

    with M = n//2 and e = (-1)^(n+1).
    """
    a, b, c, d = V.as_tuple()
    M = n // 2
    s = sigma_parity(n)
    e = 1 if s else -1
    prods = [1]
    acc = 1
    for i in range(M):
        den = (2 * i + e + 2) * b + d
        if den == 0:
            raise ZeroDenominatorError(
                f"continuous-form denominator (2*{i}+{e}+2) b + d vanishes"
            )
        acc = acc * ((2 * i + e + 2 * M) * a + c) / den
        prods.append(acc)
    coeffs = [0] * (n + 1)
    for k in range(M + 1):
        coeffs[n - 2 * k] = math.comb(M, k) * prods[M - k]
    return tuple(coeffs)


def continuous_poly(n: int, V: CharVector, x):
    """Value of the continuous symmetric polynomial of degree n at x."""
    coeffs = continuous_poly_coeffs(n, V)
    acc = 0
    for ck in reversed(coeffs):
        acc = acc * x + ck
    return acc


def continuous_C_limit(n: int, V: CharVector):
    """q -> 1 limit of the recurrence coefficient:

        (n (a (b (2-n) + d) - b c) - d sigma_n (2 a (n-1) + c))
            / ((a (2n-3) + c)(a (2n-1) + c)).
    """
    a, b, c, d = V.as_tuple()
    sn = sigma_parity(n)
    f1 = a * (2 * n - 3) + c
    f2 = a * (2 * n - 1) + c
    if f1 == 0 or f2 == 0:
        raise ZeroDenominatorError("limit recurrence denominator vanishes")
    num = n * (a * (b * (2 - n) + d) - b * c) - d * sn * (2 * a * (n - 1) + c)
    return num / (f1 * f2)


def continuous_lambda_limit(n: int, V: CharVector):
    """q -> 1 limit of the eigenvalue: -n (c - (1-n) a)."""
    return -n * (V.c - (1 - n) * V.a)


def continuous_ode_residual(n: int, V: CharVector, x):
    """Residual of the continuous differential equation at x, with the
    derivatives applied to the coefficient sequence exactly."""
    coeffs = continuous_poly_coeffs(n, V)
    d1 = tuple(k * coeffs[k] for k in range(1, len(coeffs)))
    d2 = tuple(k * d1[k] for k in range(1, len(d1)))

    def val(cs):
        acc = 0
        for ck in reversed(cs):
            acc = acc * x + ck
        return acc

    a, b, c, d = V.as_tuple()
    lam = continuous_lambda_limit(n, V)
    x2 = x * x
    return (
        x2 * (a * x2 + b) * val(d2)
        + x * (c * x2 + d) * val(d1)
        + (lam * x2 - sigma_parity(n) * d) * val(coeffs)
    )


def continuous_char_vector(fam: FamilyDescriptor) -> CharVector:
    """The q -> 1 limit of a family's characteristic vector.

    The chebyshev parameters are themselves functions of q
    (beta = [3]/[2] - 2 resp. [5]/[2] - 2), so their limits 3/2 and 5/2
    enter here, not the beta stored at the family's own base.
    """
    return fam.limit_V


def continuous_weight(fam: FamilyDescriptor, x):
    """The q -> 1 limit weight of a named family.

    ultraspherical: x^(2 alpha) (1 - x^2)^beta on [-1, 1], with the
                    chebyshev cases at alpha = 1, beta = -1/2 resp. 1/2
    hermite:        x^(-2p) exp(-x^2) on the real line
    """
    if fam.limit_weight is None:
        raise ValueError(f"no continuous weight is defined for family {fam.name!r}")
    return fam.limit_weight(x)


def _weight_star_ratio(V: CharVector, ctx: QContext, x, ref):
    """W*(x)/W*(ref) without forming either weight value.

    Near q = 1 each infinite product under/overflows on its own (its log
    grows like 1/(1-q)), and even the x-versus-ref ratio within one
    product does.  The finite limit lives in the cross-cancellation, so
    the two products are consumed together as quadruple factors

        (1 - ct x^2 B^j)(1 - cb ref^2 B^j)
        / ((1 - ct ref^2 B^j)(1 - cb x^2 B^j)),    B = q^2,

    which tend to 1 both in j and as q -> 1 (ct and cb approach each
    other), keeping every partial product O(1).
    """
    q = ctx.q
    base = 1 + V.d * (q - 1) / V.b
    if base <= 0:
        raise ZeroDenominatorError("weight power base is not positive")
    power = exp_(log_(base) * (log_(x * x) - log_(ref * ref)) / (2 * log_(q)))
    q2 = q * q
    ct = -V.a * q2 / V.b
    cb = -(V.a + V.c * (q - 1)) / (V.b + V.d * (q - 1))
    u, v = x * x, ref * ref
    bound = max(abs(ct), abs(cb)) * max(abs(u), abs(v))
    ratio = 1 + q * 0
    for j in range(ctx.max_terms):
        bj = q2**j
        if bound * bj < ctx.eps_term:
            return power * ratio
        den = (1 - ct * v * bj) * (1 - cb * u * bj)
        if den == 0:
            raise ZeroDenominatorError("weight ratio: a product factor vanishes")
        ratio = ratio * (1 - ct * u * bj) * (1 - cb * v * bj) / den
    raise TruncationError("weight ratio product did not converge within max_terms")


def _neville_at_zero(xs, ys):
    vals = list(ys)
    npts = len(vals)
    for level in range(1, npts):
        for i in range(npts - level):
            x0, x1 = xs[i], xs[i + level]
            vals[i] = (x1 * vals[i] - x0 * vals[i + 1]) / (x1 - x0)
    return vals[0]


@dataclass(frozen=True)
class LimitReport:
    quantity: str
    n: int
    x: float | None
    eps_values: tuple
    values: tuple
    target: float
    raw_errors: tuple
    monotone: bool
    extrapolated_value: float
    extrapolated_error: float


def limit_convergence_report(
    quantity: str,
    subject,
    n: int,
    probe: LimitProbe,
    x: float | None = None,
) -> LimitReport:
    """Evaluate a q-quantity along q = 1 - eps and compare with its
    continuous target.

    ``quantity`` is one of "C", "lambda", "poly", "weight".  ``subject``
    is either a callable mapping a QContext to a FamilyDescriptor (the
    family is rebuilt at every sweep point, so its characteristic vector
    tracks q) or a fixed CharVector.  "poly" needs the evaluation point
    x; "weight" needs a family subject and compares the ratio
    W*(x)/W*(x_ref) with the continuous ratio at x_ref = 0.5, since the
    raw weights only converge up to normalization.

    Raw errors are relative to the target magnitude; the polynomial
    quantity additionally floors the denominator with the magnitude of
    its largest monomial term, the meaningful scale near a zero of the
    target.  Where the target is exactly 0 (the hermite C_1 limit at
    p = 1/2, for one), the errors are absolute.
    """
    if quantity not in ("C", "lambda", "poly", "weight"):
        raise ValueError(f"unknown limit quantity {quantity!r}")
    fixed_v = isinstance(subject, CharVector)
    if quantity in ("poly", "weight") and x is None:
        raise ValueError(f"quantity {quantity!r} needs an evaluation point x")
    if quantity == "weight" and fixed_v:
        raise ValueError("weight limits need a family subject, not a bare CharVector")

    fam0 = None if fixed_v else subject(QContext(0.5))
    v_cont = subject if fixed_v else continuous_char_vector(fam0)

    # continuous target
    if quantity == "C":
        target = continuous_C_limit(n, v_cont)
        scale = abs(target)
    elif quantity == "lambda":
        target = continuous_lambda_limit(n, v_cont)
        scale = abs(target)
    elif quantity == "poly":
        coeffs = continuous_poly_coeffs(n, v_cont)
        target = continuous_poly(n, v_cont, x)
        scale = max(abs(target), max(abs(ck) * abs(x) ** k for k, ck in enumerate(coeffs)))
    else:
        target = continuous_weight(fam0, x) / continuous_weight(fam0, WEIGHT_REF_POINT)
        scale = abs(target)

    if scale == 0:
        scale = 1
    values = []
    for eps in probe.eps_values:
        # infinite products converge like q^(2j), so the factor budget must
        # grow as 1/eps for the weight sweeps near q = 1
        ctx = QContext(1 - eps, max_terms=max(10_000, int(30 / eps)))
        V = subject if fixed_v else subject(ctx).V
        if quantity == "C":
            values.append(recurrence_C(n, V, ctx))
        elif quantity == "lambda":
            values.append(eigenvalue(n, V, ctx))
        elif quantity == "poly":
            values.append(eval_explicit(n, V, ctx, x))
        else:
            values.append(_weight_star_ratio(V, ctx, x, WEIGHT_REF_POINT))
    raw_errors = tuple(abs(v - target) / scale for v in values)
    monotone = all(e1 >= e2 for e1, e2 in zip(raw_errors, raw_errors[1:]))
    k = min(probe.extrapolation_order + 1, len(values))
    extrap = _neville_at_zero(probe.eps_values[-k:], values[-k:])
    return LimitReport(
        quantity=quantity,
        n=n,
        x=x,
        eps_values=probe.eps_values,
        values=tuple(values),
        target=target,
        raw_errors=raw_errors,
        monotone=monotone,
        extrapolated_value=extrap,
        extrapolated_error=abs(extrap - target) / scale,
    )
