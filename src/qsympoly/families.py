"""Named parameterizations of the symmetric family.

Four named families are provided: the generalized q-ultraspherical
polynomials (parameters alpha, beta), the fifth- and sixth-kind
q-Chebyshev polynomials (ultraspherical at alpha = 1 and
beta = [3]/[2] - 2 resp. [5]/[2] - 2), and the generalized q-Hermite
polynomials (parameter p), whose p = 0 case rescales the discrete
q-Hermite I polynomials.  Each family is one FamilyDescriptor record,
and FAMILIES maps the command-line names to the factories.

Alongside the characteristic vectors this module carries the closed-form
norm squares exactly as tabulated, the Favard product of recurrence
coefficients (the ground truth for relative norms), Gram matrices by
Jackson integration, and the three-way norm comparison used by the
verification suites.  Where a tabulated norm expression disagrees with
the Favard product beyond tolerance, the comparison flags the discrepancy
and reports both values; it never silently corrects the closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from operator import mul
from typing import Callable

from .errors import AdmissibilityError, TruncationError, ZeroDenominatorError
from .qcore import (
    QContext,
    exp_,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    sqrt_,
)
from .sympoly import CharVector, _C_terms
from .weights import _power_base, pearson_ratio, weight_star

__all__ = [
    "FamilyDescriptor",
    "FAMILIES",
    "make_ultraspherical",
    "make_chebyshev5",
    "make_chebyshev6",
    "make_hermite",
    "make_custom",
    "norm_square_ultraspherical",
    "norm_square_hermite",
    "favard_norm",
    "ReductionReport",
    "hermite_p0_reduction_check",
    "orthogonality_matrix",
    "NormTriple",
    "norm_triple_report",
]

# least working precision of the Gram assembly, in decimal digits
GRAM_DPS = 40
# relative deviation of a tabulated norm from the Favard product above
# which norm_triple_report flags the tabulated form
CLOSED_FORM_FLAG_TOL = 1e-6
# bits that the Gram's weights carry beyond their error bound, and that its
# power table and monomial coefficients carry beyond the weights
GRAM_EXTRA_BITS = 16


@dataclass(frozen=True, eq=False)
class FamilyDescriptor:
    """A family instance and everything that varies by family.

    ``name`` is a label only.  The ``make_*`` factory fills in the rest:
    ``rebuild`` maps a QContext to the same family at that base;
    ``closed_norm`` maps n to the tabulated norm square d^2_n; ``limit_V``
    is the q -> 1 characteristic vector, in which the chebyshev beta takes
    its limit -1/2 resp. 1/2; ``limit_weight`` maps x to the q -> 1
    weight; ``violation`` says why the parameters are not admissible.
    None marks what a family lacks.
    """

    name: str
    params: dict
    V: CharVector
    support: float | None
    ctx: QContext
    limit_V: CharVector
    rebuild: Callable
    closed_norm: Callable | None = None
    limit_weight: Callable | None = None
    violation: str | None = None


def _ultraspherical(name, alpha, beta, beta1, ctx, rebuild) -> FamilyDescriptor:
    # beta1 is the q -> 1 limit of beta, which differs from beta where beta
    # itself depends on q (the chebyshev cases)
    q = ctx.q
    theta = alpha + beta + 1
    V = CharVector(-1, 1, -q * (q + 1) * theta, alpha * q * (q + 1))
    return FamilyDescriptor(
        name, {"alpha": alpha, "beta": beta}, V, 1.0, ctx,
        limit_V=CharVector(-1, 1, -2 * (alpha + beta1 + 1), 2 * alpha),
        rebuild=rebuild,
        closed_norm=lambda n: norm_square_ultraspherical(n, alpha, beta, ctx),
        limit_weight=lambda x: _ultraspherical_limit_weight(alpha, beta1, x),
    )


def make_ultraspherical(alpha, beta, ctx: QContext) -> FamilyDescriptor:
    """Generalized q-ultraspherical family on [-1, 1]:
    V = (-1, 1, -q(q+1)(alpha+beta+1), alpha q (q+1))."""
    return _ultraspherical(
        "ultraspherical", alpha, beta, beta, ctx, partial(make_ultraspherical, alpha, beta)
    )


def make_chebyshev5(ctx: QContext) -> FamilyDescriptor:
    """Fifth-kind q-Chebyshev: ultraspherical at alpha = 1, beta = [3]/[2] - 2."""
    beta = q_number(3, ctx) / q_number(2, ctx) - 2
    return _ultraspherical("chebyshev5", 1, beta, -0.5, ctx, make_chebyshev5)


def make_chebyshev6(ctx: QContext) -> FamilyDescriptor:
    """Sixth-kind q-Chebyshev: ultraspherical at alpha = 1, beta = [5]/[2] - 2."""
    beta = q_number(5, ctx) / q_number(2, ctx) - 2
    return _ultraspherical("chebyshev6", 1, beta, 0.5, ctx, make_chebyshev6)


def make_hermite(p, ctx: QContext) -> FamilyDescriptor:
    """Generalized q-Hermite family on [-1/sqrt(1-q^2), 1/sqrt(1-q^2)]:
    V = (1-q^2, -1, 1+q, p(1+q)), admissible for p (1-q^2) < 1."""
    q = ctx.q
    # a is computed as (1+q)(1-q) so that a + c(q-1) cancels to exactly zero
    a = (1 + q) * (1 - q)
    V = CharVector(a, -1, 1 + q, p * (1 + q))
    violation = None
    if p * (1 - q * q) >= 1:
        violation = f"hermite admissibility p (1-q^2) < 1 violated (p={p}, q={q})"
    return FamilyDescriptor(
        "hermite", {"p": p}, V, 1 / sqrt_(a), ctx,
        limit_V=CharVector(0, -1, 2, 2 * p),
        rebuild=partial(make_hermite, p),
        closed_norm=lambda n: norm_square_hermite(n, p, ctx),
        limit_weight=lambda x: _hermite_limit_weight(p, x),
        violation=violation,
    )


def make_custom(a, b, c, d, ctx: QContext) -> FamilyDescriptor:
    """A family given directly by its characteristic vector.

    The support endpoint is the positive root of a x^2 + b = 0 when one
    exists; weight-based operations are unavailable otherwise.  The
    vector is its own q -> 1 limit, and there is no closed-form norm or
    limit weight.
    """
    V = CharVector(a, b, c, d)
    support = None
    if a != 0 and -b / a > 0:
        support = sqrt_(-b / a)
    return FamilyDescriptor("custom", {}, V, support, ctx, limit_V=V,
                            rebuild=partial(make_custom, a, b, c, d))


# CLI family name -> (factory, names of the parameters it takes before ctx)
FAMILIES = {
    "ultraspherical": (make_ultraspherical, ("alpha", "beta")),
    "chebyshev5": (make_chebyshev5, ()),
    "chebyshev6": (make_chebyshev6, ()),
    "hermite": (make_hermite, ("p",)),
}


def _ultraspherical_limit_weight(alpha, beta, x):
    """x^(2 alpha) (1 - x^2)^beta on [-1, 1]."""
    if abs(x) > 1:
        raise ValueError("x outside the support [-1, 1]")
    if x == 0:
        if alpha < 0:
            raise ValueError("weight singular at x = 0 for alpha < 0")
        return x * 0 + (1.0 if alpha == 0 else 0.0)  # in the type of x
    x2 = x * x
    if x2 == 1 and beta < 0:
        raise ValueError("weight singular at |x| = 1 for beta < 0")
    return x2**alpha * (1 - x2) ** beta


def _hermite_limit_weight(p, x):
    """x^(-2p) exp(-x^2) on the real line."""
    if x == 0:
        return x * 0 + (1.0 if p == 0 else float("inf") if p > 0 else 0.0)  # type of x
    x2 = x * x
    return x2 ** (-p) * exp_(-x2)


def _poch(x, base, k, ctx):
    return q_shifted_factorial(x, k, ctx, base=base)


def _nonzero(v, what: str):
    if v == 0:
        raise ZeroDenominatorError(f"{what} vanishes in a closed-form norm")
    return v


def norm_square_ultraspherical(n: int, alpha, beta, ctx: QContext):
    """Tabulated closed-form norm square d^2_n of the monic q-ultraspherical
    polynomials, evaluated exactly as displayed (bases q^2 and q^4).

    The display agrees with the Favard product at generic parameters but
    has a removable singularity where 1 - q(alpha+beta+1) + alpha q^3 = 0
    (equivalently T = q^2 U, which zeroes a numerator factor at the same
    time; alpha=0.4, beta=0.7, q=0.5 sits exactly on it).  Evaluation is
    verbatim, so that locus raises ZeroDenominatorError rather than
    resolving the 0/0; favard_norm is the arbiter there.
    """
    q = ctx.q
    m = n // 2
    q2 = q * q
    q4 = q2 * q2
    T = (alpha + beta + 1) * q * (q2 - 1) + 1
    U = alpha * q * (q2 - 1) + 1
    s = alpha + beta
    pref_num = (q - 1) * (q * (q + 1) * s - 1) * (q * (q + 1) * (s + 1) - 1) * U ** (m + 1)
    pref_den = (q + 1) * (-q * (s + 1) + alpha * q**3 + 1)
    _nonzero(pref_den, "prefactor denominator")
    if n % 2 == 0:
        pref = pref_num * q ** (m * (2 * m - 1) - 2) / pref_den
        n1 = _poch(q2, q2, m, ctx) * _poch(q * U, q2, m, ctx)
        d1 = _poch(T / q**3, q4, m + 1, ctx) * _poch(T / q, q4, m, ctx)
        n3 = _poch(T / q, q2, m, ctx) * _poch(T / (q2 * U), q2, m + 1, ctx)
        d3 = _poch(T / q, q4, m + 1, ctx) * _poch(q * T, q4, m, ctx)
    else:
        pref = pref_num * q ** (m * (2 * m + 1) - 2) / pref_den
        n1 = _poch(q2, q2, m, ctx) * _poch(q * U, q2, m + 1, ctx)
        d1 = _poch(q * T, q4, m + 1, ctx)
        n3 = _poch(T / q, q2, m + 1, ctx) * _poch(T / (q2 * U), q2, m + 1, ctx)
        d3 = _poch(T / q**3, q4, m + 1, ctx) * _poch(T / q, q4, m + 1, ctx) ** 2
    _nonzero(d1, "shifted-factorial denominator")
    _nonzero(d3, "shifted-factorial denominator")
    return (n1 / d1) * pref * (n3 / d3)


def norm_square_hermite(n: int, p, ctx: QContext):
    """Tabulated closed-form norm square d^2_n of the monic generalized
    q-Hermite polynomials, evaluated exactly as displayed.

    Known caveat: the odd-index display carries (q^2 - 1)^(2m+1) in its
    denominator and therefore comes out negative; favard_norm is the
    ground truth and the comparison report shows both values.
    """
    q = ctx.q
    m = n // 2
    q2 = q * q
    A = -p * q2 + p + 1
    B = -p * q**3 + p * q + q
    common = 0.5 * q_shifted_factorial(-1, m + 1, ctx) * q_shifted_factorial(q, m, ctx)
    if n % 2 == 0:
        return common * q ** (m * (2 * m - 1)) * A**m / (q2 - 1) ** (2 * m) * _poch(
            B, q2, m, ctx
        )
    return common * q ** (m * (2 * m + 1)) * A**m / (q2 - 1) ** (2 * m + 1) * _poch(
        B, q2, m + 1, ctx
    )


def favard_norm(n: int, V: CharVector, ctx: QContext):
    """Relative norm square of the monic polynomial of degree n as the
    Favard product C_1 C_2 ... C_n (equals the Jackson-integral ratio of
    phi_n^2 against the total weight mass)."""
    prod = 1
    C_terms = _C_terms(V, ctx)
    for i in range(1, n + 1):
        prod = prod * C_terms(i)[0]
    return prod


@dataclass(frozen=True)
class ReductionReport:
    """Outcome of the p = 0 reduction to discrete q-Hermite I."""

    ok_recurrence: bool
    max_recurrence_deviation: float
    max_weight_product_deviation: float


def hermite_p0_reduction_check(n_max: int, ctx: QContext) -> ReductionReport:
    """At p = 0 the recurrence collapses to C_n = q^(n-1)(1-q^n)/(1-q^2)
    (the rescaled discrete q-Hermite I recurrence); verified here for
    n = 1 .. n_max to 1e-13 relative.

    The weight is compared on the grid alpha q^j, j = 1 .. 20, with the
    product form (q^2 (1-q^2) x^2; q^2)_inf, the discrete q-Hermite I
    weight (qy, -qy; q)_inf at y = sqrt(1-q^2) x, which solves the
    family's Pearson relation; the largest relative deviation is reported.
    """
    q = ctx.q
    fam = make_hermite(0.0, ctx)
    dev_c = 0.0
    C_terms = _C_terms(fam.V, ctx)
    for n in range(1, n_max + 1):
        ref = q ** (n - 1) * (1 - q**n) / (1 - q * q)
        val = C_terms(n)[0]
        dev_c = max(dev_c, abs(val - ref) / abs(ref))
    dev_prod = 0.0
    for j in range(1, 21):
        x = fam.support * q**j
        w = weight_star(fam.V, ctx, x)
        u = (1 - q * q) * x * x
        prod = q_shifted_factorial_inf(q * q * u, ctx, base=q * q)
        dev_prod = max(dev_prod, abs(w - prod) / abs(prod))
    return ReductionReport(
        ok_recurrence=dev_c <= 1e-13,
        max_recurrence_deviation=dev_c,
        max_weight_product_deviation=dev_prod,
    )


def orthogonality_matrix(fam: FamilyDescriptor, n_max: int, n_terms: int) -> tuple:
    """Gram matrix G[n][m] = integral of W* phi_n phi_m over [-alpha, alpha]
    by symmetric Jackson integration, for n, m = 0 .. n_max, as a tuple
    of row tuples.

    Opposite-parity entries are exactly zero (odd integrand).  Equal-parity
    entries are sums over the grid x_j = alpha q^j, j = 0 .. n_terms, of
    the weight table t_j = q^j W*(x_j) times phi_n(x_j) phi_m(x_j).  They
    are formed from the weight's power moments mu_r = sum_j t_j q^(2rj),
    r = 0 .. n_max: with phi_n(alpha y) = sum_i d_(n,i) y^i,
    G_nm = 2 alpha (1 - q) sum_(i,k) d_(n,i) d_(m,k) mu_((i+k)/2), as
    G = D M D^T.  Each entry depends only on n and m, not on n_max.

    The terms of the Jackson tail fall by q (1 + d (q - 1) / b) per grid
    point, the power base of the weight, so the CLI's default depth of
    256 points is not enough at q = 0.9 for every family.  The
    off-diagonal residual of ``check ortho`` (tolerance 1e-10) at q = 0.9
    measures 2.2e-6 for hermite p = 0.3 (ratio 0.951) and 5.4e-7 for
    ultraspherical alpha = -0.3, beta = 1.2 (ratio 0.946), which both
    pass at 700 points, and 7.7e-3 for hermite p = 0.5 (ratio 0.986),
    which still fails at 700 (1.2e-5) and at 1000 (1.4e-7).  At q = 0.3
    and q = 0.5 these families pass at 256 points.

    The true Gram matrix of the exact polynomials is diagonal, but seeing
    that to 1e-10 relative needs more headroom than double precision
    offers: ulp-level rounding of the recurrence coefficients is
    amplified by the norm ratio d^2_0 / d^2_n, around 1e10 at n = 10.
    The inputs are therefore promoted exactly to mpmath, and the matrix
    is assembled at max(GRAM_DPS, mp.dps) digits, prec bits.

    The weight table comes from the Pearson relation alone, with no
    infinite product.  With s_j = q^(2j), beta = 1 + d(q-1)/b the power
    base, gamma = 1 + c(q-1)/a and g = gamma / beta, t_{j+1} / t_j =
    q (beta - gamma s_j) / (1 - q^2 s_j).  Only a head j < J' is stepped,
    where J' is the first j with s_j <= 2^-8 (1 - q^2) / (1 + |g|): about
    35 points at q = 0.9, whatever n_terms is.  Past it the q-binomial
    theorem (Gasper and Rahman, Basic Hypergeometric Series, eq. 1.3.2)
    gives every weight in closed form, t_j = A (q beta)^(j - J') sum_k e_k
    s_j^k with A = q^J' beta^(log(alpha^2) / (2 log q) + J'), e_0 = 1 and
    e_(k+1) = e_k (g - q^(2k+2)) / (1 - q^(2k+2)).  For j >= J' each term
    of the series is at least 2^8 below the one before it, and g s_j < 1,
    so t_j > 0.  The ratios t_j / t_0 are stepped up to j = J' on F-bit
    integer mantissas with binary exponents, and t_J' from the series
    fixes their scale.  The weights can span hundreds of decades (940 for
    hermite p = -5 at q = 0.9 over 700 points).  The positivity guard
    reads the signs of the head's mantissas: a negative entry raises
    AdmissibilityError naming the first bad index j.  J' grows like
    1 / (1 - q); past max_terms, TruncationError is raised.

    The moments split at J'.  The tail j = J' .. n_terms of mu_r is
    A q^(2J'r) sum_k e_k q^(2J'k) H_(k+r), where H_i = sum_(l < n_tail)
    rho_i^l is a geometric sum of rho_i = q beta q^(2i) over the n_tail =
    n_terms + 1 - J' tail points: some 25 series terms and 35 geometric
    sums replace a pass over the grid, so the cost does not grow with
    n_terms.  When n_terms < J' the tail is empty.  H_i is 1 / (1 - rho_i)
    where rho_i^n_tail < 2^-(P + 2), and is otherwise formed by doubling,
    H(2l) = H(l) (1 + rho^l), with no division by 1 - rho, so it keeps its
    digits at and beyond rho = 1 (q beta >= 1, where the grid sum diverges
    as n_terms grows).

    The head weights are Python ints scaled by about 2^(F - e), where 2^e
    bounds the largest of them.  The power table S_i = q^(2i), i = 0 ..
    n_max (J' - 1), and the coefficients d_(n,i), stepped by phi_{k+1} =
    x phi_k - C_k phi_{k-1}, are ints scaled by 2^H, H = F +
    GRAM_EXTRA_BITS, so the head moments and the contraction are exact
    integer sums.  The tail's e_k q^(2J'k), q^(2J'r), rho_i and H_i are
    ints scaled by 2^P.  The rounding is in the head weights, each of which
    carries its truncation to an int and the roundings of up to 2J' steps,
    a few of 2^-F per step; in S and d, a few of 2^-H per step; and in the
    tail.  There, each step of e_k divides by 1 - q^(2k+2) >= 1 - q^2, so
    its rounding grows by up to 1 / (1 - q^2); H_i errs by up to about
    n_tail 2^-P relative, as each squaring doubles the relative error of
    rho^l; and since sum_(k>=1) |e_k| q^(2J'k) < 2^-7 and H_(k+r) <= H_r,
    the alternating series cancels by less than 2^-7.  So with P = F + 8
    plus the bits of (n_tail + 1) / (1 - q^2), the tail of mu_r errs by
    about 2^-F of itself, and it is at most mu_0.  As sum_i |d_(n,i)| <=
    psi_n, where psi_n = alpha psi_(n-1) + |C_(n-1)| psi_(n-2) also bounds
    |phi_n| on [-alpha, alpha], the contraction cancels from at most
    psi_n psi_m mu_0 to sqrt(G_nn G_mm).  Relative to that the rounding
    costs about (h + 8J' + 2) (1 + psi_n)^2 2^-F / (C_1 ... C_n), where h =
    min(n_terms + 1, J') counts the head's points, 2 the anchor and the
    tail, and C_1 ... C_n = d^2_n / d^2_0.  F is prec plus the bits of the
    largest such factor over n <= n_max, plus GRAM_EXTRA_BITS: the bound
    counts every rounding at its worst, while the error that occurs
    follows 2^-F, and these bits hold it far below the bound (an
    off-diagonal residual of 9e-56 for hermite p = 0.3 at q = 0.9 over
    5000 points).  alpha and q^2 enter at H bits and the C_k at prec + 60,
    so the entries keep prec bits.

    The entries come back in the type of q: floats for float input, mpf
    at the caller's precision for mpf input.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be at least 1")
    if fam.violation is not None:
        raise AdmissibilityError(fam.violation)
    if fam.support is None:
        raise ValueError("orthogonality needs a family with a support endpoint")
    import mpmath

    with mpmath.workdps(max(GRAM_DPS, mpmath.mp.dps)):
        G = _assemble_gram(fam, n_max, n_terms)
    out = mpmath.mpf if isinstance(fam.ctx.q, mpmath.mpf) else float
    return tuple(tuple(out(v) for v in row) for row in G)


def _assemble_gram(fam, n_max, N):
    import mpmath
    from mpmath.libmp import to_fixed

    mpf = mpmath.mpf
    q = mpf(fam.ctx.q)
    ictx = QContext(q)
    V = CharVector(*(mpf(v) for v in fam.V.as_tuple()))
    # the endpoint must be the root of a x^2 + b at *working* precision,
    # otherwise the boundary term A(alpha) W(alpha) stops vanishing and
    # re-enters the off-diagonal entries at the double-rounding level
    alpha = sqrt_(-V.b / V.a)
    # C_1 .. C_n_max at prec + 60, as the closed form cancels; phi_n_max needs all but the last
    with mpmath.workprec(mpmath.mp.prec + 60):
        C_terms = _C_terms(V, ictx)
        Cs = [C_terms(k)[0] for k in range(1, n_max + 1)]
    # the Pearson pole b (1 - q^(2j+2)) is nearest to zero at j = 0, so the
    # resonance test at alpha covers the orbit
    pearson_ratio(V, ictx, alpha)

    # guard bits: the largest (h + 8J + 2) (1 + psi_n)^2 / (C_1 ... C_n)
    # over n <= n_max (n = 0 gives 4), where psi_n bounds |phi_n| on [-alpha, alpha]
    psi_prev, psi, norm_ratio, worst = mpf(1), alpha, mpf(1), mpf(4)
    for k, Ck in enumerate(Cs, 1):
        norm_ratio = norm_ratio * Ck
        if norm_ratio == 0:
            raise AdmissibilityError(f"the norm ratio C_1 ... C_{k} vanishes")
        worst = max(worst, (1 + psi) ** 2 / abs(norm_ratio))
        psi_prev, psi = psi, alpha * psi + abs(Ck) * psi_prev
    # the head j < J is stepped: J is the first j with q^(2j) <= 2^-8 (1 - q^2) / (1 + |g|),
    # g = gamma / beta, past which the tail's series falls by 2^8 per term
    prec = mpmath.mp.prec
    beta, gamma = _power_base(V, q), 1 + V.c * (q - 1) / V.a
    q2 = q * q
    J = int(mpmath.log((1 - q2) / (256 * (1 + abs(gamma / beta)))) / mpmath.log(q2)) + 1
    if J > fam.ctx.max_terms:
        raise TruncationError(f"weight table start depth {J} exceeds max_terms")
    h, n_tail = min(N + 1, J), max(0, N + 1 - J)
    F = prec + GRAM_EXTRA_BITS + mpmath.mag((h + 8 * J + 2) * worst)
    P = F + 8 + mpmath.mag((n_tail + 1) / (1 - q2))
    one, half = 1 << F, 1 << (F - 1)
    # t_j = AJ (q beta)^(j-J) sum_k e_k q^(2jk) for j >= J, and the power
    # AJ = q^J beta^(L + J) loses the bits of |log AJ| to rounding
    L = mpmath.log(-V.b / V.a) / (2 * mpmath.log(q))
    log_AJ = abs((L + J) * mpmath.log(beta)) - J * mpmath.log(q)
    with mpmath.workprec(P + 8 + mpmath.mag(log_AJ)):
        beta, gamma = _power_base(V, q), 1 + V.c * (q - 1) / V.a
        q2 = q * q
        z = q2**J
        AJ = q**J * beta ** (mpmath.log(-V.b / V.a) / (2 * mpmath.log(q)) + J)
        QB, QG, Q2 = (to_fixed(v._mpf_, F) for v in (q * beta, q * gamma, q2))
        GZ, Z, RHO, S2 = (to_fixed(v._mpf_, P) for v in (gamma / beta * z, z, q * beta, q2))
        EA = mpmath.mag(AJ) - P
        mA = to_fixed(AJ._mpf_, -EA)
    # e_k z^k 2^P, z = q^(2J), from e_0 = 1 and e_(k+1) = e_k (g - q^(2k+2)) / (1 - q^(2k+2))
    ONE = 1 << P
    es, e, s = [], ONE, ONE
    while e:
        es.append(e)
        s = (s * S2) >> P
        den = ONE - s
        e = (e * (GZ - ((Z * s) >> P)) + (den >> 1)) // den
    # H_i 2^P, H_i = sum_(l<n_tail) (q beta q^(2i))^l, for i = 0 .. len(es) - 1 + n_max
    Hs, rho = [], RHO
    for _ in range(len(es) + n_max):
        Hs.append(_geometric_sum(rho, n_tail, P))
        rho = (rho * S2) >> P
    # u_j = t_j / t_0 = m 2^E stepped up from u_0 = 1; s = s_j 2^F
    m, E, s, table = one, -F, one, []
    for j in range(J):
        if j <= N:
            table.append((m, E))
        num = QB - ((QG * s + half) >> F)
        if num == 0:
            raise ZeroDenominatorError("weight denominator product vanishes")
        s = (s * Q2 + half) >> F
        m = ((m * num) << F) // (one - s)
        k = m.bit_length() - F
        m, E = (m >> k if k >= 0 else m << -k), E + k - F
    # t_J = AJ sum_k e_k z^k = mt 2^Et, and t_j = u_j t_J / u_J = m_j R 2^(E_j + RE)
    mt, Et = mA * sum(es), EA - P
    k = mt.bit_length() - F
    mt, Et = (mt >> k if k >= 0 else mt << -k), Et + k
    R, RE = (mt << F) // m, Et - E - F
    for j, (mj, _) in enumerate(table):
        if mj * R <= 0:
            raise AdmissibilityError(
                f"weight is not positive on the grid (first bad index {j})"
            )
    # the weights are t_j 2^-(top + RE + F), below 2^(F + 1)
    top = max(Ej for _, Ej in table)
    weights = [(mj * R) >> (top - Ej + F) for mj, Ej in table]

    # S_i = q^(2i) 2^H for i = 0 .. n_max (h - 1), so that x_j^(2r) = alpha^(2r) S_rj 2^-H
    H = F + GRAM_EXTRA_BITS
    hh = 1 << (H - 1)
    with mpmath.workprec(H + 8):
        A, S1 = (to_fixed(v._mpf_, H) for v in (sqrt_(-V.b / V.a), q * q))
    S = [1 << H]
    for _ in range(n_max * (h - 1)):
        S.append((S[-1] * S1 + hh) >> H)
    # mu_r = sum_(j<h) w_j S_rj plus the tail sum_(j>=J) t_j q^(2rj) = AJ z^r sum_k e_k z^k H_(k+r)
    size = n_max + 1
    tails, zr = [], ONE
    for r in range(size):
        tails.append(mA * zr * sum(map(mul, es, Hs[r:])))
        zr = (zr * Z) >> P
    sh = EA - 3 * P + H - top - RE - F
    mu = [sum(weights) << H] + [sum(map(mul, weights, S[::r])) for r in range(1, size)]
    mu = [u + (t << sh if sh >= 0 else t >> -sh) for u, t in zip(mu, tails)]
    # D[n][i] 2^-H = d_(n,i), the coefficient of y^i in phi_n(alpha y)
    D = [[1 << H], [0, A]]
    for Ck in Cs[:-1]:
        Ck = to_fixed(Ck._mpf_, H)
        D.append([(A * u - Ck * v + hh) >> H for u, v in zip([0] + D[-1], D[-2] + [0, 0])])
    # each sum of d d mu carries the scale 2^(top + RE + F) 2^-3H
    scale, EG = 2 * alpha * (1 - q), top + RE + F - 3 * H
    G = [[0] * size for _ in range(size)]
    for n in range(size):
        p = n % 2
        # row[b] = sum_a d_(n,p+2a) mu_(p+a+b), contracted with d_(m,p+2b)
        row = [sum(map(mul, D[n][p::2], mu[p + b:])) for b in range((n_max - p) // 2 + 1)]
        for m in range(n, size, 2):
            G[n][m] = G[m][n] = scale * mpf((sum(map(mul, row, D[m][p::2])), EG))
    return G


def _geometric_sum(r, n, P):
    """sum_(i<n) (r 2^-P)^i, times 2^P, for an int r >= 0."""
    one = 1 << P
    if n * (P - math.log2(r or 1)) > P + 2:
        # r^n < 2^-(P + 2), so it is dropped, and 1 - r > 1 / n cancels little
        return (one << P) // (one - r)
    # s(2k) = s(k) (1 + r^k) and s(k + 1) = s(k) + r^k, with no division by 1 - r
    s, p = 0, one
    for bit in bin(n)[2:]:
        s, p = s + ((s * p) >> P), (p * p) >> P
        if bit == "1":
            s, p = s + p, (p * r) >> P
    return s


@dataclass(frozen=True)
class NormTriple:
    """Three-way norm comparison at one degree.

    ``closed_form`` is None when the tabulated expression could not be
    evaluated (the note says why).  ``discrepancy_flagged`` marks the case
    where Favard and quadrature agree with each other but the tabulated
    form deviates beyond the flag threshold; per policy that is reported,
    not failed.
    """

    n: int
    closed_form: float | None
    closed_form_note: str | None
    favard: float
    quadrature: float
    favard_vs_quadrature: float
    closed_vs_favard: float | None
    discrepancy_flagged: bool
    ok: bool


def norm_triple_report(
    fam: FamilyDescriptor, n_max: int, gram: tuple, pair_tol: float = 1e-8
) -> tuple:
    """Compare closed-form norms, Favard products and quadrature ratios
    for n = 0 .. n_max.

    A tabulated norm that deviates from the Favard product by more than
    CLOSED_FORM_FLAG_TOL relative is flagged and reported, not failed.
    ``gram`` is an orthogonality_matrix of this family of size at least
    n_max + 1, whose leading block gives the quadrature ratios.
    """
    if len(gram) <= n_max:
        raise ValueError(f"Gram matrix of size {len(gram)} has no entry at n = {n_max}")
    mass = gram[0][0]
    out = []
    fav = 1
    C_terms = _C_terms(fam.V, fam.ctx)
    for n in range(n_max + 1):
        if n:
            # favard_norm(n), carried over from n - 1 in the same order
            fav = fav * C_terms(n)[0]
        quad = gram[n][n] / mass
        pair_rel = abs(fav - quad) / max(abs(fav), abs(quad))
        closed = closed_rel = None
        flagged = False
        note = "no closed form for this family"
        if fam.closed_norm is not None:
            try:
                closed, note = fam.closed_norm(n), None
            except ZeroDenominatorError as exc:
                flagged, note = True, f"closed form not evaluable: {exc}"
        if closed is not None:
            closed_rel = abs(closed - fav) / max(abs(closed), abs(fav))
            if closed_rel > CLOSED_FORM_FLAG_TOL:
                flagged = True
                note = (
                    f"closed form deviates from Favard product by {float(closed_rel):.3e}; "
                    "both values reported"
                )
        ok = pair_rel <= pair_tol and (
            flagged or closed is None or closed_rel <= pair_tol
        )
        out.append(NormTriple(n, closed, note, fav, quad, pair_rel, closed_rel, flagged, ok))
    return tuple(out)
