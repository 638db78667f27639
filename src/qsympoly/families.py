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
coefficients (the ground truth for relative norms), Gram matrices over
the whole Jackson grid from the weight's exact moments, and the
three-way norm comparison used by the verification suites.  Where a
tabulated norm expression disagrees with the Favard product beyond
tolerance, the comparison flags the discrepancy and reports both values;
it never silently corrects the closed form.
"""

from __future__ import annotations

import math
from functools import partial
from operator import mul
from typing import Callable

from .errors import (
    AdmissibilityError,
    DivergenceError,
    InvalidBaseError,
    QSymPolyError,
    ZeroDenominatorError,
)
from .qcore import (
    QContext,
    Record,
    exp_,
    q_number,
    q_shifted_factorial,
    q_shifted_factorial_inf,
    sqrt_,
)
from .sympoly import CharVector, _C_exact, _C_terms, _dyadic
from .weights import weight_star

# least working precision of the Gram assembly, in decimal digits, and
# in bits as mpmath counts them (mpmath.libmp.dps_to_prec(GRAM_DPS))
GRAM_DPS = 40
GRAM_PREC = 136
# relative deviation of a tabulated norm from the Favard product above
# which norm_triple_report flags the tabulated form
CLOSED_FORM_FLAG_TOL = 1e-6
# bits that the Gram's moments and monomial coefficients carry beyond their
# error bound
GRAM_EXTRA_BITS = 16


class FamilyDescriptor(Record):
    """A family instance and everything that varies by family.

    ``name`` is a label only.  The ``make_*`` factory fills in the rest:
    ``rebuild`` maps a QContext to the same family at that base;
    ``closed_norm`` maps n to the tabulated norm square d^2_n; ``limit_V``
    is the q -> 1 characteristic vector, in which the chebyshev beta takes
    its limit -1/2 resp. 1/2; ``limit_weight`` maps x to the q -> 1
    weight; ``violation`` says why the parameters are not admissible.
    None marks what a family lacks.  Descriptors compare by identity.
    """

    __slots__ = ("name", "params", "V", "support", "ctx", "limit_V", "rebuild",
                 "closed_norm", "limit_weight", "violation")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, name: str, params: dict, V: CharVector, support: float | None,
                 ctx: QContext, limit_V: CharVector, rebuild: Callable,
                 closed_norm: Callable | None = None, limit_weight: Callable | None = None,
                 violation: str | None = None) -> None:
        super().__init__(name, params, V, support, ctx, limit_V, rebuild, closed_norm,
                         limit_weight, violation)


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
    # halved last, which is exact in float and keeps Fraction input exact
    common = q_shifted_factorial(-1, m + 1, ctx) * q_shifted_factorial(q, m, ctx) / 2
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


class ReductionReport(Record):
    """Outcome of the p = 0 reduction to discrete q-Hermite I."""

    __slots__ = ("max_recurrence_deviation", "max_weight_product_deviation")


def hermite_p0_reduction_check(n_max: int, ctx: QContext) -> ReductionReport:
    """At p = 0 the recurrence collapses to C_n = q^(n-1)(1-q^n)/(1-q^2)
    (the rescaled discrete q-Hermite I recurrence); the largest relative
    deviation over n = 1 .. n_max is reported.

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
    return ReductionReport(max_recurrence_deviation=dev_c, max_weight_product_deviation=dev_prod)


def orthogonality_matrix(fam: FamilyDescriptor, n_max: int) -> tuple:
    """Gram matrix G[n][m] = sum_j t_j phi_n(x_j) phi_m(x_j) / sum_j t_j
    over the whole Jackson grid x_j = alpha q^j, j >= 0, with t_j = q^j
    W*(x_j), for n, m = 0 .. n_max, as row tuples in the type of q, each
    entry rounded once.  The weight has unit mass, as every consumer reads
    ratios: G[0][0] = 1 and G[n][n] = h_n / h_0.  Opposite-parity entries
    are exactly zero.  By the q-binomial theorem the moments are exact,
    m_r = prod_(i<r) (1 - q^(2i+1) beta) / (1 - q^(2i+1) gamma), and G = D
    M D^T in ints at 2^H, with D the coefficients of phi_n(alpha y) from
    the exact C_k, each rounded once.  Every input is read as an exact
    dyadic ratio of ints (float, int or mpf; any other type raises
    QSymPolyError), so the set-up is integer arithmetic and imports mpmath
    only to wrap an mpf q's entries.  README "Numeric policy" gives the
    derivation, the guard bits H and the order of the errors: the family's
    violation, ResonanceError, a vanishing norm ratio, InvalidBaseError, a
    zero or negative weight factor on the grid, DivergenceError.  A float
    diagonal entry outside the normal range raises QSymPolyError.
    """
    if fam.violation is not None:
        raise AdmissibilityError(fam.violation)
    if fam.support is None:
        raise ValueError("orthogonality needs a family with a support endpoint")
    V, q = _dyadic(fam.V, fam.ctx.q)
    if isinstance(fam.ctx.q, float):
        S, H = _assemble_gram(V, q, n_max, GRAM_PREC)
        for n, row in enumerate(S):  # G_nn = S_nn 2^-3H, a normal float below 2^1023
            if not -1021 <= abs(row[n]).bit_length() - 3 * H <= 1023:
                raise QSymPolyError(f"the Gram entry G_{n},{n} leaves the float range")
        scale = 1 << 3 * H  # int / int rounds correctly
        return tuple(tuple(v / scale for v in row) for row in S)
    import mpmath

    S, H = _assemble_gram(V, q, n_max, mpmath.libmp.dps_to_prec(max(GRAM_DPS, mpmath.mp.dps)))
    return tuple(tuple(mpmath.mpf((v, -3 * H)) for v in row) for row in S)


def _assemble_gram(V, q, n_max, prec):
    """(S, H): G = S 2^-3H, for V = (a, b, c, d) and q = (Q, E) as _dyadic
    gives them, at ``prec`` bits of working precision."""
    a, b, c, d = V
    Q, E = q
    # C_1 .. C_n_max exactly, each as an int pair (num, den)
    Cs = _C_exact(V, q, n_max)
    # alpha^2 = an / ad > 0, as the family has a support endpoint
    an, ad = (-b, a) if a > 0 else (b, -a)

    # guard bits: the largest log2 of (1 + psi_n)^2 / |C_1 ... C_n| over n <= n_max (n = 0
    # gives 2), where psi_n bounds |phi_n| on [-alpha, alpha], rounded up at 2^-32
    A32 = psi = math.isqrt((an << 64) // ad) + 1
    psi_prev, ratio_bits, worst = 1 << 32, 0.0, 2.0
    for k, (num, den) in enumerate(Cs, 1):
        if num == 0:
            raise AdmissibilityError(f"the norm ratio C_1 ... C_{k} vanishes")
        ratio_bits += math.log2(den) - math.log2(abs(num))
        worst = max(worst, 2 * math.log2((1 << 32) + psi) - 64 + ratio_bits)
        psi_prev, psi = psi, (A32 * psi - (-abs(num) << 32) // den * psi_prev >> 32) + 1
    # beta = 1 + d (q-1) / b = bn / bd and gamma = 1 + c (q-1) / a = gn / gd, bd, gd > 0
    bn, bd = b * E + d * (Q - E), b * E
    bn, bd = (bn, bd) if bd > 0 else (-bn, -bd)
    if bn <= 0:
        raise InvalidBaseError(f"power base 1 + d(q-1)/b = {bn / bd!r} must be positive")
    gn, gd = a * E + c * (Q - E), a * E
    gn, gd = (gn, gd) if gd > 0 else (-gn, -gd)
    # the factor 1 - g q^(2i) of t_(i+1) / t_i is negative while gamma q^(2i) > beta;
    # past them the weights keep the sign of W* near 0, so an odd count makes t_0
    # the first bad weight, and an even one t_1
    lhs, rhs, negative = gn * bd, bn * gd, 0
    if lhs >= rhs:
        def excess(i):  # the sign of gamma q^(2i) - beta, E = 2^e
            return lhs * Q ** (2 * i) - (rhs << 2 * i * (E.bit_length() - 1))

        # the last i with gamma q^(2i) >= beta: estimated in floats, settled exactly
        k = int((math.log(lhs) - math.log(rhs)) / (2 * (math.log(E) - math.log(Q))))
        while excess(k + 1) >= 0:
            k += 1
        while (last := excess(k)) < 0:
            k -= 1
        if last == 0:
            raise ZeroDenominatorError("weight denominator product vanishes")
        negative = k + 1
    if negative:
        raise AdmissibilityError(
            f"weight is not positive on the grid (first bad index {1 - negative % 2})"
        )
    if Q * bn >= E * bd:
        raise DivergenceError(
            "the Jackson sum diverges: the weight ratio t_(j+1) / t_j tends to "
            f"q beta = {Q * bn / (E * bd):.6g} >= 1"
        )

    # 1 / (1 - q beta) = top / bot lies in [2^(mag - 1), 2^mag)
    top, bot = E * bd, E * bd - Q * bn
    k = top.bit_length() - bot.bit_length()
    mag = k + 1 if top >= bot << k else k
    H = prec + GRAM_EXTRA_BITS + math.ceil(worst + 2 * math.log2(n_max + 1)) + mag
    one, hh = 1 << H, 1 << (H - 1)
    # q beta, q gamma, q^2 and alpha, each floored at 2^-H
    QB, QG, Q2 = (Q * bn << H) // top, (Q * gn << H) // (E * gd), (Q * Q << H) // (E * E)
    A = math.isqrt((an << 2 * H) // ad)
    M = _moments(QB, QG, Q2, n_max, H)
    # D[n][i] 2^-H = d_(n,i), the coefficient of y^i in phi_n(alpha y); phi_n_max
    # needs all C_k but the last, each rounded once to nearest at 2^-H
    D = [[one], [0, A]]
    for num, den in Cs[:-1]:
        Ck = ((num << H + 1) + den) // (2 * den)
        D.append([(A * u - Ck * v + hh) >> H for u, v in zip([0] + D[-1], D[-2] + [0, 0])])
    size = n_max + 1
    G = [[0] * size for _ in range(size)]
    for n in range(size):
        p = n % 2
        # row[b] = sum_a d_(n,p+2a) m_(p+a+b), contracted with d_(m,p+2b)
        row = [sum(map(mul, D[n][p::2], M[p + b:])) for b in range((n_max - p) // 2 + 1)]
        for m in range(n, size, 2):
            G[n][m] = G[m][n] = sum(map(mul, row, D[m][p::2]))
    return G, H


def _moments(QB, QG, Q2, n, H):
    """[M_0 .. M_n], M_r 2^-H = m_r = prod_(i<r) (1 - QB_i 2^-H) / (1 - QG_i 2^-H), with
    QB_i, QG_i the ints QB, QG (q beta, q gamma at 2^H) stepped i times by Q2 = q^2 2^H;
    each step rounds to nearest, and every 1 - QG_i 2^-H must be positive."""
    one, hh = 1 << H, 1 << (H - 1)
    M = [one]
    for _ in range(n):
        den = one - QG
        M.append((M[-1] * (one - QB) + (den >> 1)) // den)
        QB, QG = (QB * Q2 + hh) >> H, (QG * Q2 + hh) >> H
    return M


class NormTriple(Record):
    """Three-way norm measurement at one degree.

    ``closed_form`` is None when the family has no tabulated expression
    or when its expression could not be evaluated; the latter is flagged.
    ``discrepancy_flagged`` also marks the case where the tabulated form
    deviates from the Favard product beyond the flag threshold; per
    policy that is reported, not failed.
    """

    __slots__ = ("n", "closed_form", "favard", "quadrature", "favard_vs_quadrature",
                 "closed_vs_favard", "discrepancy_flagged")


def norm_triple_report(fam: FamilyDescriptor, n_max: int, gram: tuple) -> tuple:
    """Measure closed-form norms, Favard products and quadrature ratios
    for n = 0 .. n_max.  The report takes no tolerance: it gives the
    relative deviations, and the caller decides (``check norm`` compares
    them with its tolerance).

    A tabulated norm that deviates from the Favard product by more than
    CLOSED_FORM_FLAG_TOL relative is flagged and reported, not failed.
    ``gram`` is an orthogonality_matrix of this family of size at least
    n_max + 1, whose diagonal G_nn = h_n / h_0 (unit mass, G_00 = 1) gives
    the quadrature ratios.
    """
    if len(gram) <= n_max:
        raise ValueError(f"Gram matrix of size {len(gram)} has no entry at n = {n_max}")
    out = []
    fav = 1
    C_terms = _C_terms(fam.V, fam.ctx)
    for n in range(n_max + 1):
        if n:
            # favard_norm(n), carried over from n - 1 in the same order
            fav = fav * C_terms(n)[0]
        quad = gram[n][n]
        pair_rel = abs(fav - quad) / max(abs(fav), abs(quad))
        closed = closed_rel = None
        flagged = False
        if fam.closed_norm is not None:
            try:
                closed = fam.closed_norm(n)
            except ZeroDenominatorError:
                flagged = True
        if closed is not None:
            closed_rel = abs(closed - fav) / max(abs(closed), abs(fav))
            flagged = closed_rel > CLOSED_FORM_FLAG_TOL
        out.append(NormTriple(n, closed, fav, quad, pair_rel, closed_rel, flagged))
    return tuple(out)
