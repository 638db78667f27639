"""q -> 1 limit targets and their convergence reports.

The symmetric family degenerates, as q tends to 1, to the continuous
symmetric polynomials solving

    x^2 (a x^2 + b) y'' + x (c x^2 + d) y' - (n (c + (n-1) a) x^2 + sigma_n d) y = 0,

with closed-form limits for the recurrence coefficient and eigenvalue.
This module provides those targets, and limit_convergence_report, which
quantifies how a q-quantity approaches its target.

Limit verification is numeric by design: quantities are evaluated along
q = 1 - eps for the fixed eps values LIMIT_EPS (1e-2, 1e-3, 1e-4) and
Richardson-extrapolated to eps = 0; the targets are read at the first
sweep point, as a family's q -> 1 data do not depend on q.  The weight
quantity is the ratio W*(x) / W*(x_ref) of two weight_star values, each
one product of quotients of order one as q -> 1, whose head grows like
1/eps (about 32,000 factors at eps = 1e-4).  Smaller eps would cost time
in proportion and float digits in the q-differences of the other
quantities; elevated precision (mpmath) is supported by the duck-typed
arithmetic but not switched on automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import ZeroDenominatorError
from .families import FamilyDescriptor
from .qcore import QContext, sigma_parity
from .sympoly import CharVector, _polyval, eigenvalue, eval_explicit, recurrence_C
from .weights import weight_star

__all__ = [
    "LimitReport",
    "continuous_poly_coeffs",
    "continuous_poly",
    "continuous_C_limit",
    "continuous_lambda_limit",
    "continuous_ode_residual",
    "continuous_weight",
    "limit_convergence_report",
]

# reference abscissa for weight-ratio comparisons; inside every family's support
WEIGHT_REF_POINT = 0.5
# the sweep q = 1 - eps, largest eps first; the extrapolation to eps = 0
# runs through all of its points, so it has order 2
LIMIT_EPS = (1e-2, 1e-3, 1e-4)
# the contexts of the sweep; the head of the weight's product runs to
# |q^(2j) t| < 1e-3, about 32,000 factors at eps = 1e-4, so the factor
# budget grows as 1/eps
_SWEEP_CTXS = tuple(QContext(1 - eps, max_terms=max(10_000, int(30 / eps))) for eps in LIMIT_EPS)


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
    return _polyval(continuous_poly_coeffs(n, V), x)


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
    a, b, c, d = V.as_tuple()
    lam = continuous_lambda_limit(n, V)
    x2 = x * x
    return (
        x2 * (a * x2 + b) * _polyval(d2, x)
        + x * (c * x2 + d) * _polyval(d1, x)
        + (lam * x2 - sigma_parity(n) * d) * _polyval(coeffs, x)
    )


def continuous_weight(fam: FamilyDescriptor, x):
    """The q -> 1 limit weight of a named family.

    ultraspherical: x^(2 alpha) (1 - x^2)^beta on [-1, 1], with the
                    chebyshev cases at alpha = 1, beta = -1/2 resp. 1/2
    hermite:        x^(-2p) exp(-x^2) on the real line
    """
    if fam.limit_weight is None:
        raise ValueError(f"no continuous weight is defined for family {fam.name!r}")
    return fam.limit_weight(x)


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


def _scaled(target):
    return target, abs(target)


def _poly_target(n, fam, x):
    # the largest monomial term |c_k x^k| scales the error near a zero
    coeffs = continuous_poly_coeffs(n, fam.limit_V)
    target = _polyval(coeffs, x)
    return target, max(abs(target), max(abs(ck) * abs(x) ** k for k, ck in enumerate(coeffs)))


# quantity -> (its value, of (n, V, ctx, x), and its continuous target with
# the scale of its errors, of (n, fam, x))
_QUANTITIES = {
    "C": (lambda n, V, ctx, x: recurrence_C(n, V, ctx),
          lambda n, fam, x: _scaled(continuous_C_limit(n, fam.limit_V))),
    "lambda": (lambda n, V, ctx, x: eigenvalue(n, V, ctx),
               lambda n, fam, x: _scaled(continuous_lambda_limit(n, fam.limit_V))),
    "poly": (eval_explicit, _poly_target),
    "weight": (
        lambda n, V, ctx, x: weight_star(V, ctx, x) / weight_star(V, ctx, WEIGHT_REF_POINT),
        lambda n, fam, x: _scaled(
            continuous_weight(fam, x) / continuous_weight(fam, WEIGHT_REF_POINT)),
    ),
}


def limit_convergence_report(
    quantity: str, subject: Callable, n: int, x: float | None = None
) -> LimitReport:
    """Evaluate a q-quantity along q = 1 - eps, eps in LIMIT_EPS, and
    compare with its continuous target.

    ``quantity`` is one of "C", "lambda", "poly", "weight".  ``subject``
    maps a QContext to a FamilyDescriptor, such as a family's ``rebuild``;
    the family is built at every sweep point, so its characteristic
    vector tracks q, and the continuous targets read its q-independent
    ``limit_V`` and ``limit_weight`` at the first sweep point.  "poly" and
    "weight" need the evaluation point x; "weight" compares the ratio
    W*(x)/W*(x_ref) with the continuous ratio at x_ref = 0.5, since the
    raw weights only converge up to normalization.

    Raw errors are relative to the target magnitude; the polynomial
    quantity additionally floors the denominator with the magnitude of
    its largest monomial term, the meaningful scale near a zero of the
    target.  Where the target is exactly 0 (the hermite C_1 limit at
    p = 1/2, for one), the errors are absolute.
    """
    if quantity not in _QUANTITIES:
        raise ValueError(f"unknown limit quantity {quantity!r}")
    if quantity in ("poly", "weight") and x is None:
        raise ValueError(f"quantity {quantity!r} needs an evaluation point x")
    value, target_and_scale = _QUANTITIES[quantity]
    fams = [subject(ctx) for ctx in _SWEEP_CTXS]
    target, scale = target_and_scale(n, fams[0], x)
    if scale == 0:
        scale = 1
    values = [value(n, fam.V, ctx, x) for ctx, fam in zip(_SWEEP_CTXS, fams)]
    raw_errors = tuple(abs(v - target) / scale for v in values)
    monotone = all(e1 >= e2 for e1, e2 in zip(raw_errors, raw_errors[1:]))
    extrap = _neville_at_zero(LIMIT_EPS, values)
    return LimitReport(
        quantity=quantity,
        n=n,
        x=x,
        eps_values=LIMIT_EPS,
        values=tuple(values),
        target=target,
        raw_errors=raw_errors,
        monotone=monotone,
        extrapolated_value=extrap,
        extrapolated_error=abs(extrap - target) / scale,
    )
