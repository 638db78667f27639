"""Jackson q-integration on geometric grids.

The Jackson integral samples the integrand on the grid x q**n and sums a
geometric series; it is the quadrature rule under which the symmetric
families are orthogonal.  Every operation returns a
:class:`QIntegralResult` carrying the value and a cheap, conservative
tail estimate (|last included contribution| / (1 - q)), so callers can
judge the truncation level.  Summation always runs in ascending n for
reproducibility.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .errors import DivergenceError, TruncationError
from .qcore import QContext, Record, isfinite_


class QIntegralResult(NamedTuple):
    value: float
    tail_estimate: float


class JacksonConfig(Record):
    """Grid depth for Jackson sums."""

    __slots__ = ("ctx", "n_terms")

    def __init__(self, ctx: QContext, n_terms: int = 256) -> None:
        super().__init__(ctx, n_terms)
        if self.n_terms < 1:
            raise ValueError("n_terms must be at least 1")
        if float(self.ctx.q) ** self.n_terms == 0.0:
            raise ValueError(
                f"q**n_terms underflows for q={self.ctx.q}, n_terms={self.n_terms}"
            )


def _check_value(v, x):
    if not isfinite_(v):
        raise ValueError(f"integrand returned a non-finite value at x={x!r}")
    return v


def q_integral_zero_to(f: Callable, x, cfg: JacksonConfig) -> QIntegralResult:
    """Jackson integral over [0, x]: x (1-q) sum_n q**n f(q**n x)."""
    q = cfg.ctx.q
    if x == 0:
        return QIntegralResult(0.0, 0.0)
    total = 0
    last = 0
    qn = 1 + q * 0
    for _ in range(cfg.n_terms + 1):
        xn = qn * x
        last = qn * _check_value(f(xn), xn)
        total = total + last
        qn = qn * q
    return QIntegralResult(x * (1 - q) * total, abs(x * last))


def q_integral(f: Callable, a, b, cfg: JacksonConfig) -> QIntegralResult:
    """Jackson integral over [a, b] as the difference of two zero-based integrals."""
    rb = q_integral_zero_to(f, b, cfg)
    ra = q_integral_zero_to(f, a, cfg)
    return QIntegralResult(rb.value - ra.value, rb.tail_estimate + ra.tail_estimate)


def q_integral_symmetric(f: Callable, b, cfg: JacksonConfig) -> QIntegralResult:
    """Jackson integral over [-b, b]: b (1-q) sum_n q**n (f(b q**n) + f(-b q**n)).

    Odd integrands cancel pairwise and integrate to exactly zero.
    """

    def even_part(x):
        return _check_value(f(x), x) + _check_value(f(-x), -x)

    return q_integral_zero_to(even_part, b, cfg)


def q_integral_real_line(f: Callable, cfg: JacksonConfig) -> QIntegralResult:
    """Bilateral Jackson integral (1-q) sum_{n=-N}^{N} q**n (f(q**n) + f(-q**n)).

    Both tails must decay: the term at n = -N (and at n = +N) has to drop
    below eps_term relative to the accumulated sum.  Where it does not,
    the integral is declared divergent, unless the terms at that end
    still shrink outward (|t_N| < |t_(N-1)|): then the sum converges but
    the grid is too short, and TruncationError names the end.
    """
    ctx = cfg.ctx
    q = ctx.q
    N = cfg.n_terms
    total = 0
    terms = []
    for n in range(-N, N + 1):
        qn = q**n
        t = qn * (_check_value(f(qn), qn) + _check_value(f(-qn), -qn))
        if abs(t) > 1e200:
            raise DivergenceError(
                f"bilateral Jackson term at n={n} exceeds 1e200; integral diverges"
            )
        terms.append(t)
        total = total + t
    scale = max(1.0, abs(total))
    for side, n, end, inner in (("-", -N, terms[0], terms[1]), ("+", N, terms[-1], terms[-2])):
        if abs(end) <= ctx.eps_term * scale:
            continue
        if abs(end) < abs(inner):
            raise TruncationError(
                f"bilateral Jackson integral: the n -> {side}inf tail decays but "
                f"|term| = {abs(end)!r} at n = {n} is above eps_term={ctx.eps_term}; "
                "a larger n_terms is needed"
            )
        raise DivergenceError(
            f"bilateral Jackson integral: the n -> {side}inf tail does not decay "
            f"(|term| = {abs(end)!r} at n = {n})"
        )
    return QIntegralResult((1 - q) * total, abs(terms[0]) + abs(terms[-1]))
