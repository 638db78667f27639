import sys
from fractions import Fraction

import mpmath
import pytest

import qsympoly as qp
from conftest import named_families, rel, rng

CTX = qp.QContext(0.5)
Q = 0.5
N_TERMS = 256  # the CLI's default grid depth


_ORACLE_GRIDS = {}


def _oracle_grid(make, q, n_terms):
    """The family of ``make`` at 40 digits, with its Jackson grid and direct
    weight_star table at 60 digits for the same (exactly promoted) vector,
    j = 0 .. n_terms; one table per (make, q), extended as deeper grids are
    asked for, since its entries do not depend on n_terms or n_max."""
    if (make, q) not in _ORACLE_GRIDS:
        with mpmath.workdps(40):
            _ORACLE_GRIDS[make, q] = make(qp.QContext(mpmath.mpf(q))), [], []
    fam, xs, ws = _ORACLE_GRIDS[make, q]
    with mpmath.workdps(60):
        ctx = qp.QContext(fam.ctx.q)
        alpha, qm = qp.make_custom(*fam.V.as_tuple(), ctx).support, ctx.q
        for j in range(len(xs), n_terms + 1):
            xs.append(alpha * qm**j)
            ws.append(qm**j * qp.weight_star(fam.V, ctx, xs[-1]))
    return fam, xs[:n_terms + 1], ws[:n_terms + 1]


def _oracle_hermite(p: str):
    """A maker of hermite(p) with p read at the working precision."""
    return lambda ctx: qp.make_hermite(mpmath.mpf(p), ctx)


class TestMakers:
    def test_ultraspherical_vector(self):
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        assert fam.V.a == -1 and fam.V.b == 1
        assert rel(fam.V.c, -Q * (1 + Q) * 2.1) < 1e-15
        assert rel(fam.V.d, 0.4 * Q * (1 + Q)) < 1e-15
        assert fam.support == 1.0

    def test_ultraspherical_induced_equation(self):
        # B(x) = x(c x^2 + d) must equal (q+1) q x (alpha - x^2 (alpha+beta+1))
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        r = rng(11)
        for _ in range(5):
            x = r.uniform(-1, 1)
            lhs = x * (fam.V.c * x * x + fam.V.d)
            rhs = (Q + 1) * Q * x * (0.4 - x * x * 2.1)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))

    def test_chebyshev5_parameters(self):
        fam = qp.make_chebyshev5(CTX)
        assert rel(fam.V.c, -Q * (Q * Q + Q + 1)) < 1e-14
        assert rel(fam.V.d, Q * (Q + 1)) < 1e-14

    def test_chebyshev6_parameters(self):
        fam = qp.make_chebyshev6(CTX)
        q5 = 1 + Q + Q**2 + Q**3 + Q**4
        assert rel(fam.V.c, -Q * q5) < 1e-14
        assert rel(fam.V.d, Q * (Q + 1)) < 1e-14

    def test_hermite_vector(self):
        fam = qp.make_hermite(0.3, CTX)
        assert rel(fam.V.a, 1 - Q * Q) < 1e-15
        assert fam.V.b == -1
        assert fam.V.c == 1 + Q
        assert rel(fam.V.d, 0.3 * (1 + Q)) < 1e-15
        assert rel(fam.support, 1 / (1 - Q * Q) ** 0.5) < 1e-15

    def test_hermite_induced_equation(self):
        # B(x) = (q+1) x (x^2 + p); the x^2 eigen-coefficient is (1+q) q [-n]
        fam = qp.make_hermite(0.3, CTX)
        r = rng(12)
        for _ in range(5):
            x = r.uniform(-1, 1)
            lhs = x * (fam.V.c * x * x + fam.V.d)
            rhs = (Q + 1) * x * (x * x + 0.3)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
        for n in range(0, 9):
            lam = qp.eigenvalue(n, fam.V, CTX)
            q_minus_n = (Q**-n - 1) / (Q - 1)
            assert rel(lam, (1 + Q) * Q * q_minus_n) < 1e-13

    def test_custom_support(self):
        fam = qp.make_custom(-2.0, 0.5, 1.0, 0.0, CTX)
        assert rel(fam.support, 0.5) < 1e-15  # sqrt(-b/a) = sqrt(0.25)
        assert qp.make_custom(1.0, 0.5, 1.0, 0.0, CTX).support is None


class TestNormSquares:
    def test_hermite_even_matches_favard(self):
        for p in (0.0, 0.3):
            fam = qp.make_hermite(p, CTX)
            for n in (0, 2, 4, 6, 8):
                closed = qp.norm_square_hermite(n, p, CTX)
                fav = qp.favard_norm(n, fam.V, CTX)
                assert rel(closed, fav) < 1e-10

    def test_hermite_odd_sign_defect(self):
        # tabulated odd-index form carries (q^2-1)^(2m+1) and comes out negative
        for p in (0.0, 0.3):
            fam = qp.make_hermite(p, CTX)
            for n in (1, 3, 5, 7):
                closed = qp.norm_square_hermite(n, p, CTX)
                fav = qp.favard_norm(n, fam.V, CTX)
                assert closed < 0 < fav
                assert rel(-closed, fav) < 1e-10

    def test_hermite_display_is_favard_times_sign(self):
        # in exact arithmetic the display is (-1)^n times the Favard product
        from fractions import Fraction

        for q in (Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)):
            ctx = qp.QContext(q)
            for p in (Fraction(0), Fraction(3, 10), Fraction(1, 2)):
                fam = qp.make_hermite(p, ctx)
                for n in range(1, 9):
                    ratio = qp.norm_square_hermite(n, p, ctx) / qp.favard_norm(n, fam.V, ctx)
                    assert ratio == (-1) ** n

    def test_ultraspherical_matches_favard(self):
        for al, be, q in ((0.3, 0.45, 0.5), (0.4, 0.7, 0.3), (1.2, -0.3, 0.5)):
            ctx = qp.QContext(q)
            fam = qp.make_ultraspherical(al, be, ctx)
            for n in range(0, 9):
                closed = qp.norm_square_ultraspherical(n, al, be, ctx)
                fav = qp.favard_norm(n, fam.V, ctx)
                assert rel(closed, fav) < 1e-9

    def test_chebyshev_match_favard(self):
        for mk in (qp.make_chebyshev5, qp.make_chebyshev6):
            fam = mk(CTX)
            for n in range(0, 9):
                assert rel(fam.closed_norm(n), qp.favard_norm(n, fam.V, CTX)) < 1e-9

    def test_ultraspherical_removable_singularity(self):
        # 1 - q(alpha+beta+1) + alpha q^3 = 0 exactly at (0.4, 0.7, 0.5); the
        # 0/0 is not resolved, it is reported
        with pytest.raises(qp.ZeroDenominatorError):
            qp.norm_square_ultraspherical(2, 0.4, 0.7, CTX)

    def test_degree_zero_norm_is_one(self):
        assert rel(qp.norm_square_ultraspherical(0, 0.3, 0.45, CTX), 1.0) < 1e-12
        assert qp.norm_square_hermite(0, 0.3, CTX) == 1.0

    def test_favard_basics(self):
        fam = qp.make_hermite(0.0, CTX)
        assert qp.favard_norm(0, fam.V, CTX) == 1
        assert rel(qp.favard_norm(1, fam.V, CTX), 2.0 / 3.0) < 1e-15
        prod = 1.0
        for i in range(1, 5):
            prod *= qp.recurrence_C(i, fam.V, CTX)
        assert rel(qp.favard_norm(4, fam.V, CTX), prod) < 1e-15


class TestOrthogonalityMatrix:
    def test_hermite_off_diagonal(self):
        fam = qp.make_hermite(0.0, CTX)
        G = qp.orthogonality_matrix(fam, 10)
        for i in range(11):
            for j in range(i + 1, 11):
                if (i + j) % 2:
                    assert G[i][j] == 0.0
                else:
                    assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5

    def test_diagonal_matches_favard(self):
        # the weight is normalized to unit mass
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10)
        assert G[0][0] == 1
        for n in range(1, 11):
            fav = qp.favard_norm(n, fam.V, CTX)
            assert rel(G[n][n], fav) < 1e-9

    def test_matches_q_integral_symmetric(self):
        # the assembly equals literal float Jackson integrals divided by the
        # weight's mass, on the scale of the diagonal: the true off-diagonal
        # entries are rounding noise.  q beta = 0.425, so 256 points leave a
        # tail far below the float rounding
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        G = qp.orthogonality_matrix(fam, 4)
        polys = [qp.build_monic(n, fam.V, CTX) for n in range(5)]
        cfg = qp.JacksonConfig(CTX, n_terms=N_TERMS)

        def integral(f):
            return qp.q_integral_symmetric(
                lambda t: qp.weight_star(fam.V, CTX, t) * f(t), 1.0, cfg).value

        mass = integral(lambda t: 1.0)
        for n in range(5):
            for m in range(n, 5, 2):
                direct = integral(lambda t: polys[n](t) * polys[m](t)) / mass
                assert abs(G[n][m] - direct) <= 1e-14 * (G[n][n] * G[m][m]) ** 0.5

    # each grid is deep enough that its tail is below 1e-50 of the mass
    ORACLE_CASES = [
        (lambda ctx: qp.make_ultraspherical(mpmath.mpf("0.4"), mpmath.mpf("0.7"), ctx), "0.5", 256),
        (_oracle_hermite("0.3"), "0.3", 256),
        # power base 1 + p (1 - q^2) = 0.0025: the weight table spans about
        # 210 decades
        (_oracle_hermite("-5.25"), "0.9", 80),
        # no named family: power base 0.9 and gamma = 1 + c(q-1)/a = 0.25
        (lambda ctx: qp.make_custom(-1, 1, mpmath.mpf("-1.5"), mpmath.mpf("0.2"), ctx),
         "0.5", 256),
    ]
    ORACLE_IDS = ["ultraspherical", "hermite", "hermite-wide-table", "custom"]

    @pytest.mark.parametrize(
        "make,q,n_terms,n_max",
        [case + (6,) for case in ORACLE_CASES]
        # n_max = 10 has the largest cancellation, psi_10 against d^2_10 / d^2_0
        + [case + (10,) for case in ORACLE_CASES]
        # q beta = 0.951: 0.951^5000 = 1e-108
        + [(_oracle_hermite("0.3"), "0.9", 5000, 10),
           # gamma / beta = -2.22
           (lambda ctx: qp.make_custom(-1, 1, -6, mpmath.mpf("0.2"), ctx), "0.5", 256, 10)],
        ids=ORACLE_IDS + [i + "-n_max-10" for i in ORACLE_IDS]
        + ["hermite-q0.9-N5000", "custom-alternating-tail"],
    )
    def test_mp40_oracle(self, make, q, n_terms, n_max):
        # the Gram at 40 digits against a literal Jackson sum over a direct
        # weight_star table and Horner values of the monic polynomials,
        # divided by the sum of the weights, at 60 digits: at 40 the Horner
        # values themselves err by up to 1.3e-29 at n_max = 10
        fam, xs, ws = _oracle_grid(make, q, n_terms)
        with mpmath.workdps(40):
            G = qp.orthogonality_matrix(fam, n_max)
        with mpmath.workdps(60):
            ctx = qp.QContext(fam.ctx.q)
            polys = [qp.build_monic(n, fam.V, ctx) for n in range(n_max + 1)]
            pv = [[p(x) for x in xs] for p in polys]
            mass = mpmath.fsum(ws)

            def oracle(n, m):
                return mpmath.fsum(w * a * b for w, a, b in zip(ws, pv[n], pv[m])) / mass

            diagonal = [oracle(n, n) for n in range(n_max + 1)]
            for n in range(n_max + 1):
                for m in range(n, n_max + 1, 2):
                    scale = mpmath.sqrt(diagonal[n] * diagonal[m])
                    exact = diagonal[n] if m == n else oracle(n, m)
                    assert abs(G[n][m] - exact) <= mpmath.mpf("1e-33") * scale

    def test_q_beta_near_one(self):
        # q beta = 1 - 1.06e-7: no literal sum reaches the mass, so the Gram
        # is held against diag(C_1 ... C_n), the Favard products at 60 digits
        make = _oracle_hermite("0.5847947")
        with mpmath.workdps(40):
            fam = make(qp.QContext(mpmath.mpf("0.9")))
            G = qp.orthogonality_matrix(fam, 10)
        with mpmath.workdps(60):
            fav = [qp.favard_norm(n, fam.V, qp.QContext(fam.ctx.q)) for n in range(11)]
            for n in range(11):
                for m in range(n, 11, 2):
                    exact = fav[n] if m == n else 0
                    scale = mpmath.sqrt(fav[n] * fav[m])
                    assert abs(G[n][m] - exact) <= mpmath.mpf("1e-33") * scale

    @pytest.mark.parametrize("r", [0, 1, 2**40, 2**64 - 2**20, 2**64, 2**64 + 2**30, 3 * 2**63])
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 700])
    def test_geometric_sum(self, r, n):
        # gamma = q^2 beta makes the weight geometric on the grid, t_(j+1) /
        # t_j = x = q beta, so m_k = sum_j x^j q^(2jk) / sum_j x^j = (1 - x) /
        # (1 - x q^(2k)) for k >= 1: the moment product telescopes, in the
        # fixed point too, as its q gamma is its q beta stepped once.  At q =
        # 1/2 and P = 64 bits, with x = r 2^-64 on both sides of 1 (for x >= 1
        # the identity is formal), against the closed form at 4000 bits: each
        # of the k divisions rounds once, and no factor exceeds 1 in size
        from qsympoly.families import _moments

        P, Q2 = 64, 2**62
        M = _moments(r, (r * Q2 + 2**63) >> P, Q2, n, P)
        assert len(M) == n + 1
        with mpmath.workprec(4000):
            x = mpmath.ldexp(r, -P)
            for k, v in enumerate(M):
                exact = 1 if k == 0 else (1 - x) / (1 - x / 4**k)
                err = abs(mpmath.ldexp(v, -P) - exact)
                assert err <= 4 * (k + 1) * max(exact, 1) * mpmath.ldexp(1, -P)

    def test_one_C_exact_call_per_gram(self, monkeypatch):
        # the guard bits, the norm-ratio test and D all read one exact pass
        from qsympoly import families

        real, calls = families._C_exact, []

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(families, "_C_exact", spy)
        fam = qp.make_hermite(0.3, qp.QContext(0.9))
        qp.orthogonality_matrix(fam, 10)
        [(V, q, n_max)] = calls
        assert (V, q, n_max) == (*families._dyadic(fam.V, 0.9), 10)
        # the float inputs themselves, exactly: V on one scale, q = Q / E
        scale = V[0] / Fraction(fam.V.a)
        assert [Fraction(v) / scale for v in V] == list(map(Fraction, fam.V.as_tuple()))
        assert Fraction(*q) == Fraction(0.9)

    def test_no_resonance_test_by_the_float_guard(self):
        # the Gram's C_k denominators are ints, compared with 0 in _C_exact:
        # no _resonant call, where there were n_max per Gram
        from qsympoly import sympoly

        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is sympoly._resonant.__code__:
                calls.append(frame)

        fam = qp.make_hermite(0.3, qp.QContext(0.9))
        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            qp.orthogonality_matrix(fam, 10)
        finally:
            sys.setprofile(previous)
        assert calls == []

    @pytest.mark.parametrize("make", [
        lambda: qp.make_hermite(Fraction(3, 10), qp.QContext(Fraction(1, 2))),
        lambda: qp.make_custom(-1, 1, Fraction(-3, 2), Fraction(1, 5), CTX),
    ])
    def test_fraction_input_is_a_typed_error(self, make):
        # neither rounded to a dyadic value nor passed on to mpmath's TypeError
        with pytest.raises(qp.QSymPolyError, match="needs float, int or mpf input, not Fraction"):
            qp.orthogonality_matrix(make(), 4)

    def test_float_precision_is_fixed(self):
        # a float Gram works at 40 digits, whatever mpmath's precision
        from mpmath.libmp import dps_to_prec

        from qsympoly import families

        assert families.GRAM_PREC == dps_to_prec(40)
        fam = qp.make_hermite(0.3, qp.QContext(0.9))
        G = qp.orthogonality_matrix(fam, 10)
        with mpmath.workdps(80):
            assert qp.orthogonality_matrix(fam, 10) == G
        assert {type(v) for row in G for v in row} == {float}

    def test_mutated_C_lifts_off_diagonal(self, monkeypatch):
        # a relative change of 1e-9 in C_4, which phi_5 .. phi_10 read,
        # must show in the off-diagonal
        from qsympoly import families

        real = families._C_exact

        def mutated(V, q, n_max):
            Cs = real(V, q, n_max)
            num, den = Cs[3]
            Cs[3] = num * (10**9 + 1), den * 10**9
            return Cs

        monkeypatch.setattr(families, "_C_exact", mutated)
        for q in (0.5, 0.9):
            for fam in named_families(qp.QContext(q)).values():
                G = qp.orthogonality_matrix(fam, 10)
                worst = max(abs(G[i][j]) / (G[i][i] * G[j][j]) ** 0.5
                            for i in range(11) for j in range(i + 2, 11, 2))
                assert worst > 1e-10

    def test_inadmissible_hermite(self):
        fam = qp.make_hermite(2.0, CTX)  # p (1 - q^2) = 1.5
        with pytest.raises(qp.AdmissibilityError):
            qp.orthogonality_matrix(fam, 4)

    @pytest.mark.parametrize("p,q_beta", [(2.0, "1.242"), (0.6, "1.0026")])
    def test_divergent_jackson_sum(self, p, q_beta):
        # admissible, p (1 - q^2) < 1, but q beta = 0.9 (1 + 0.19 p) >= 1
        fam = qp.make_hermite(p, qp.QContext(0.9))
        assert fam.violation is None
        with pytest.raises(qp.DivergenceError, match=f"q beta = {q_beta} >= 1"):
            qp.orthogonality_matrix(fam, 10)

    def test_q_beta_one_vanishes_C1(self):
        # power base beta = 2 at q = 0.5: C_1 = alpha^2 (1 - q beta) / (1 - q gamma) = 0
        fam = qp.make_custom(-1, 1, 0.5, -2, CTX)
        with pytest.raises(qp.AdmissibilityError, match=r"C_1 \.\.\. C_1 vanishes"):
            qp.orthogonality_matrix(fam, 4)

    def test_weight_not_positive_on_grid(self):
        # beta = -1.5 makes W* negative at the endpoint alpha = 1 (j = 0)
        fam = qp.make_ultraspherical(0.4, -1.5, CTX)
        bad = qp.weight_grid_report(fam.V, fam.support, CTX, N_TERMS).first_bad_index
        assert bad == 0
        with pytest.raises(qp.AdmissibilityError, match=f"first bad index {bad}\\)"):
            qp.orthogonality_matrix(fam, 4)

    def test_weight_sign_change_mid_grid(self):
        # power base 0.125: the step ratio q (0.125 - q^(2j)) / (1 - q^(2j+2))
        # is negative at j = 0 and 1, so of the whole table only t_1 is negative
        fam = qp.make_custom(-1, 1, 0, 1.75, CTX)
        assert qp.weight_grid_report(fam.V, fam.support, CTX, N_TERMS).first_bad_index == 1
        with pytest.raises(qp.AdmissibilityError, match="first bad index 1\\)"):
            qp.orthogonality_matrix(fam, 4)

    def test_weight_factor_count_is_exact(self):
        # custom(-1, 1, c, 0) at q = 1/2: beta = 1 and gamma = 1 + c / 2, so
        # 1 - g q^(2i) <= 0 for i <= log4(gamma), and is exactly 0 at i = k
        # when gamma = 4^k
        for k in range(1, 11):
            c = 2 * 4**k - 2
            with pytest.raises(qp.ZeroDenominatorError, match="product vanishes"):
                qp.orthogonality_matrix(qp.make_custom(-1, 1, c, 0, CTX), 1)
            for c, count in ((c * (1 + 2**-40), k + 1), (c * (1 - 2**-40), k)):
                with pytest.raises(qp.AdmissibilityError,
                                   match=f"first bad index {1 - count % 2}"):
                    qp.orthogonality_matrix(qp.make_custom(-1, 1, c, 0, CTX), 1)
        # about 11,500 negative factors near q = 1
        q = 0.999
        with mpmath.workdps(50):
            g = 1 + mpmath.mpf(1e13) * (1 - mpmath.mpf(q))
            count = int(mpmath.floor(mpmath.log(g) / (-2 * mpmath.log(q)))) + 1
        assert count > 11000
        with pytest.raises(qp.AdmissibilityError, match=f"first bad index {1 - count % 2}"):
            qp.orthogonality_matrix(qp.make_custom(-1, 1, 1e13, 0, qp.QContext(q)), 1)

    def test_invalid_power_base(self):
        fam = qp.make_custom(-1, 1, 0, 2.5, CTX)  # power base 1 + d (q-1) / b = -0.25
        # the exact base, shown as a float as weight_star shows it
        with pytest.raises(qp.InvalidBaseError, match=r"^power base .* = -0\.25 must be positive"):
            qp.orthogonality_matrix(fam, 4)

    def test_vanishing_norm_ratio(self):
        # c / a = d / b gives gamma = beta: the weight's denominator product
        # vanishes at alpha, and C_2 = 0 exactly, which must not escape as a
        # bare ZeroDivisionError from the guard-bit estimate
        fam = qp.make_custom(-1, 1, -1.5, 1.5, CTX)
        assert qp.recurrence_C(2, fam.V, CTX) == 0
        with pytest.raises(qp.AdmissibilityError, match="C_1 ... C_2 vanishes"):
            qp.orthogonality_matrix(fam, 4)
        # n_max = 1 forms no C_2, and the step factor 1 - g q^0 is zero
        with pytest.raises(qp.ZeroDenominatorError, match="weight denominator product vanishes"):
            qp.orthogonality_matrix(fam, 1)

    def test_no_infinite_products(self, monkeypatch):
        # the moments come from the Pearson relation alone
        from qsympoly import families, qcore, sympoly, weights

        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (qcore, sympoly, weights, families):
            for name in ("weight_star", "q_shifted_factorial_inf"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        for fam in (qp.make_ultraspherical(0.4, 0.7, CTX), qp.make_hermite(0.3, CTX)):
            qp.orthogonality_matrix(fam, 10)
        assert calls == []
        qp.weight_grid_report(fam.V, fam.support, CTX, 0)
        assert calls == ["weight_star", "q_shifted_factorial_inf"]

    @staticmethod
    def off_diagonal(G):
        roots = [abs(G[i][i]) ** 0.5 for i in range(len(G))]
        return max(abs(G[i][j]) / (roots[i] * roots[j])
                   for i in range(len(G)) for j in range(i + 2, len(G), 2))

    def test_no_noise_floor_at_n_max_limit(self):
        # C_k formed at prec + 60 bits left a floor of about 2^-2(prec+60) G_jj
        # under every G_nn: chebyshev6 at q = 1/2 read an off-diagonal of 1.000
        # and G_30,30 = 1.151e-125 against the Favard product 7.919e-136
        from qsympoly.cli import N_MAX_LIMIT

        with mpmath.workdps(40):
            fam = qp.make_chebyshev6(qp.QContext(mpmath.mpf("0.5")))
            G = qp.orthogonality_matrix(fam, N_MAX_LIMIT)
            assert self.off_diagonal(G) <= 1e-40
        with mpmath.workdps(80):
            ctx = qp.QContext(fam.ctx.q)
            fav = [qp.favard_norm(n, fam.V, ctx) for n in range(N_MAX_LIMIT + 1)]
        assert float(fav[30]) == pytest.approx(7.919e-136, rel=1e-3)
        assert max(abs(G[n][n] / fav[n] - 1) for n in range(N_MAX_LIMIT + 1)) <= 1e-35

    def test_float_at_n_max_limit(self):
        # every entry is the exact contraction rounded once to a float
        from qsympoly.cli import N_MAX_LIMIT

        fam = qp.make_hermite(0.3, qp.QContext(0.9))
        G = qp.orthogonality_matrix(fam, N_MAX_LIMIT)
        assert all(type(v) is float for row in G for v in row)
        assert self.off_diagonal(G) <= 1e-40
        with mpmath.workdps(40):
            ctx = qp.QContext(mpmath.mpf(fam.ctx.q))
            V = qp.CharVector(*map(mpmath.mpf, fam.V.as_tuple()))
            fav = [qp.favard_norm(n, V, ctx) for n in range(N_MAX_LIMIT + 1)]
            assert max(abs(G[n][n] / fav[n] - 1) for n in range(N_MAX_LIMIT + 1)) <= 2**-52

    def test_diagonal_below_float_range(self):
        # chebyshev6 at q = 1/2: G_45,45 = 2.3e-306 is the last normal diagonal;
        # off-diagonal entries may underflow to 0.0
        fam = qp.make_chebyshev6(CTX)
        G = qp.orthogonality_matrix(fam, 45)
        assert G[45][45] >= sys.float_info.min and self.off_diagonal(G) <= 1e-10
        with pytest.raises(qp.QSymPolyError, match=r"^the Gram entry G_46,46 leaves the float range$"):
            qp.orthogonality_matrix(fam, 46)
        with mpmath.workdps(20):
            ctx = qp.QContext(mpmath.mpf(0.5))
            assert qp.orthogonality_matrix(qp.make_chebyshev6(ctx), 64)[64][64] > 0

    def test_exact_resonance(self):
        # custom(-1, 1, 2, d) at q = 1/2: the C_1 denominator is exactly zero,
        # and nothing before it in the error order fires
        with pytest.raises(qp.ResonanceError, match="^C_1 denominator vanishes$"):
            qp.orthogonality_matrix(qp.make_custom(-1.0, 1.0, 2.0, 0.2, CTX), 4)

    def test_near_q_one(self):
        # the weight products would need more than 40,000 factors at 40
        # digits, and the grid sum thousands of points; the moments need
        # neither
        for q in (0.999, 0.99999):
            fam = qp.make_ultraspherical(0.4, 0.7, qp.QContext(q))
            G = qp.orthogonality_matrix(fam, 10)
            worst = max(abs(G[i][j]) / (G[i][i] * G[j][j]) ** 0.5
                        for i in range(11) for j in range(i + 2, 11, 2))
            assert worst <= 1e-40

    @pytest.mark.parametrize("dps", [20, 60])
    def test_mpf_input_at_caller_precision(self, dps):
        # the assembly runs at no fewer digits than the float path, and the
        # entries come back as mpf at the caller's precision
        with mpmath.workdps(dps):
            ctx = qp.QContext(mpmath.mpf("0.5"))
            fam = qp.make_hermite(mpmath.mpf("0.3"), ctx)
            G = qp.orthogonality_matrix(fam, 10)
            assert mpmath.mp.dps == dps
            worst = max(
                abs(G[i][j]) / mpmath.sqrt(G[i][i] * G[j][j])
                for i in range(11)
                for j in range(i + 2, 11, 2)
            )
            assert worst <= 1e-30
            # rounding to the caller's precision changes no entry
            assert all(isinstance(v, mpmath.mpf) and +v == v for row in G for v in row)

    @pytest.mark.parametrize("q", [0.3, 0.9])
    def test_other_bases(self, q):
        ctx = qp.QContext(q)
        for fam in (
            qp.make_ultraspherical(0.4, 0.7, ctx),
            qp.make_chebyshev5(ctx),
            qp.make_chebyshev6(ctx),
            qp.make_hermite(0.3, ctx),
        ):
            G = qp.orthogonality_matrix(fam, 6)
            for i in range(7):
                for j in range(i + 1, 7):
                    if (i + j) % 2 == 0:
                        assert abs(G[i][j]) <= 1e-10 * (G[i][i] * G[j][j]) ** 0.5


class TestNormTriple:
    def test_reads_leading_block_of_given_gram(self):
        fam = qp.make_hermite(0.3, CTX)
        G = qp.orthogonality_matrix(fam, 10)
        G8 = qp.orthogonality_matrix(fam, 8)
        assert qp.norm_triple_report(fam, 8, G) == qp.norm_triple_report(fam, 8, G8)
        with pytest.raises(ValueError):
            qp.norm_triple_report(fam, 8, G[:8])

    def test_favard_column_is_favard_norm(self):
        # the report carries C_1 ... C_n across n; the bits match favard_norm
        for ctx in (CTX, qp.QContext(0.9)):
            for fam in (qp.make_hermite(0.3, ctx), qp.make_ultraspherical(0.4, 0.7, ctx)):
                report = qp.norm_triple_report(fam, 8, qp.orthogonality_matrix(fam, 8))
                assert [r.favard for r in report] == [
                    qp.favard_norm(n, fam.V, ctx) for n in range(9)
                ]

    def test_hermite_report(self):
        fam = qp.make_hermite(0.3, CTX)
        report = qp.norm_triple_report(fam, 8, qp.orthogonality_matrix(fam, 8))
        for r in report:
            assert r.favard_vs_quadrature <= 1e-8
            if r.n % 2 == 0:
                assert not r.discrepancy_flagged
                assert r.closed_vs_favard <= 1e-10
            else:
                assert r.discrepancy_flagged
                assert r.closed_form < 0

    def test_ultraspherical_report_flags(self):
        fam = qp.make_ultraspherical(0.4, 0.7, CTX)
        report = qp.norm_triple_report(fam, 6, qp.orthogonality_matrix(fam, 6))
        assert all(r.discrepancy_flagged for r in report)
        assert all(r.favard_vs_quadrature <= 1e-8 for r in report)
        # the removable singularity of the tabulated form: not evaluable at any n
        assert all(r.closed_form is None and r.closed_vs_favard is None for r in report)

    def test_custom_family_has_no_closed_form(self):
        fam = qp.make_custom(-1.0, 1.0, -1.5, 0.2, CTX)
        report = qp.norm_triple_report(fam, 4, qp.orthogonality_matrix(fam, 4))
        assert all(r.closed_form is None for r in report)
        assert not any(r.discrepancy_flagged for r in report)
        assert all(r.favard_vs_quadrature <= 1e-8 for r in report)


class TestReduction:
    def test_p0_reduction(self):
        rep = qp.hermite_p0_reduction_check(20, CTX)
        assert rep.max_recurrence_deviation <= 1e-13
        # the Pearson-consistent product form (the discrete q-Hermite I
        # weight) matches to rounding
        assert rep.max_weight_product_deviation <= 1e-12

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_recurrence_collapse_all_q(self, q):
        ctx = qp.QContext(q)
        rep = qp.hermite_p0_reduction_check(20, ctx)
        assert rep.max_recurrence_deviation <= 1e-13
