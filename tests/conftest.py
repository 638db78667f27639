"""Shared helpers for the test suite: relative-error metrics, seeded
sampling, and independently coded closed-form oracles."""

from __future__ import annotations

import functools
import importlib.util
import random
from pathlib import Path

import pytest

import qsympoly as qp


def rel(u, v, floor=1e-300):
    """Plain relative deviation."""
    return abs(u - v) / max(abs(u), abs(v), floor)


def rel_scaled(u, v, scale):
    """Relative deviation with a magnitude floor (meaningful near zeros)."""
    return abs(u - v) / max(abs(u), abs(v), scale)


def rng(seed=20240809):
    return random.Random(seed)


def load_tool(name):
    """The module tools/<name>.py; skips the test when the checkout lacks it."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"tools/{name}.py is not part of this checkout")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def named_families(ctx):
    return {
        "ultraspherical(0.4,0.7)": qp.make_ultraspherical(0.4, 0.7, ctx),
        "chebyshev5": qp.make_chebyshev5(ctx),
        "chebyshev6": qp.make_chebyshev6(ctx),
        "hermite(0)": qp.make_hermite(0.0, ctx),
        "hermite(0.3)": qp.make_hermite(0.3, ctx),
    }


def family_builders():
    return {
        "ultraspherical(0.4,0.7)": lambda ctx: qp.make_ultraspherical(0.4, 0.7, ctx),
        "chebyshev5": qp.make_chebyshev5,
        "chebyshev6": qp.make_chebyshev6,
        "hermite(0)": lambda ctx: qp.make_hermite(0.0, ctx),
        "hermite(0.3)": lambda ctx: qp.make_hermite(0.3, ctx),
    }


def random_char_vectors(count, q_ctx, n_check=21, seed=20240809):
    """Seeded CharVectors, rejecting resonant and degenerate draws."""
    r = rng(seed)
    out = []
    while len(out) < count:
        a, b, c, d = (r.uniform(-2, 2) for _ in range(4))
        if abs(a) + abs(c) < 0.1:
            continue
        try:
            V = qp.CharVector(a, b, c, d)
            for n in range(n_check + 1):
                qp.delta(n, V, q_ctx)
            for n in range(1, n_check):
                qp.recurrence_C(n, V, q_ctx)
        except qp.QSymPolyError:
            continue
        out.append(V)
    return out


# ---------------------------------------------------------------------------
# independently coded oracles (kept free of the library's internal helpers)


def oracle_qnum(z, q):
    return (q**z - 1) / (q - 1)


def oracle_qpoch(x, base, k):
    prod = 1.0
    for j in range(k):
        prod *= 1 - x * base**j
    return prod


def oracle_qpoch_inf(x, base, terms=400):
    prod = 1.0
    for j in range(terms):
        prod *= 1 - x * base**j
    return prod


def oracle_C_even_ultraspherical(m, alpha, beta, q):
    """The tabulated even-index recurrence coefficient of the
    q-ultraspherical family, coded directly from its display."""
    th = alpha + beta + 1
    T = q * (q * q - 1) * th + 1
    num = q ** (2 * m + 2) * (q ** (2 * m) - 1) * (
        q ** (2 * m) * T + q * q * (alpha * (q - q**3) - 1)
    )
    den = -(q * q + 1) * q ** (4 * m + 2) * T + q ** (8 * m + 1) * T * T + q**5
    return num / den


def oracle_C_odd_ultraspherical(m, alpha, beta, q):
    th = alpha + beta + 1
    T = q * (q * q - 1) * th + 1
    U = alpha * q * (q * q - 1) + 1
    num = q ** (2 * m) * (
        q ** (2 * m) * (-(alpha * q**5 + (beta + 1) * q**3 + q * q - q * th + 1))
        + U * q ** (4 * m + 1) * T
        + q
    )
    den = -(q * q + 1) * q ** (4 * m) * T + q ** (8 * m + 1) * T * T + q
    return num / den


def oracle_C_even_hermite(m, p, q):
    return -(p * (q * q - 1) - 1) * q ** (2 * m - 1) * (q ** (2 * m) - 1) / (q * q - 1)


def oracle_C_odd_hermite(m, p, q):
    return ((-p * q * q + p + 1) * q ** (4 * m + 1) - q ** (2 * m)) / (q * q - 1)


def oracle_weight_discrete_q_hermite_1(y, q):
    """The discrete q-Hermite I weight (qy, -qy; q)_inf on [-1, 1]
    (Koekoek, Lesky and Swarttouw, Hypergeometric Orthogonal Polynomials
    and Their q-Analogues, Springer 2010, section 14.28), coded in base q
    from two separate products."""
    return oracle_qpoch_inf(q * y, q) * oracle_qpoch_inf(-q * y, q)


def oracle_hermite_star_mp40(p, q, xs):
    """W*(x) = (1 + p (1-q^2))^(log x^2 / (2 log q)) (q^2 (1-q^2) x^2; q^2)_inf
    of the generalized q-Hermite family at 60 digits, through mpmath.qp, for
    p and q given as decimal strings and rounded to 40 digits, as a 40-digit
    run of the library receives them."""
    import mpmath

    with mpmath.workdps(40):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
    with mpmath.workdps(60):
        a = 1 - q * q
        base = 1 + p * a
        return [
            base ** (mpmath.log(x * x) / (2 * mpmath.log(q))) * mpmath.qp(q * q * a * x * x, q * q)
            for x in xs
        ]


# the last point q = 1 - eps of the q -> 1 limit sweep, and a factor budget
# for the head of W*'s product there, about 32,000 factors
Q_NEAR_ONE = 1 - 1e-4
NEAR_ONE_MAX_TERMS = 300_000


@functools.cache
def mp40_chebyshev6_near_one(x):
    """W*(x) of chebyshev6 at q = Q_NEAR_ONE (promoted exactly), with the
    family built and the weight formed at 40 digits, where no product
    leaves the range of an mpf; about 1 s a point."""
    import mpmath

    with mpmath.workdps(40):
        ctx = qp.QContext(mpmath.mpf(Q_NEAR_ONE), max_terms=NEAR_ONE_MAX_TERMS)
        return qp.weight_star(qp.make_chebyshev6(ctx).V, ctx, mpmath.mpf(x))
