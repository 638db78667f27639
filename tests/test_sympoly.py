from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qsympoly as qp
from conftest import (
    oracle_C_even_hermite,
    oracle_C_even_ultraspherical,
    oracle_C_odd_hermite,
    oracle_C_odd_ultraspherical,
    random_char_vectors,
    rel,
    rel_scaled,
    rng,
)

CTX = qp.QContext(0.5)
HERMITE0 = qp.make_hermite(0.0, CTX)
ULTRA = qp.make_ultraspherical(0.4, 0.7, CTX)


class TestCharVector:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            qp.CharVector(0, 1, 0, 1)

    def test_tuple_roundtrip(self):
        V = qp.CharVector(1, 2, 3, 4)
        assert V.as_tuple() == (1, 2, 3, 4)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        import mpmath

        for entry in (bad, mpmath.mpf(bad)):
            with pytest.raises(ValueError, match="finite"):
                qp.CharVector(1.0, -1.0, 2.0, entry)

    def test_mpf_and_fraction_accepted(self):
        from fractions import Fraction

        import mpmath

        V = qp.CharVector(mpmath.mpf(-1), Fraction(1, 3), mpmath.mpf("0.5"), Fraction(2))
        assert V.b == Fraction(1, 3) and V.c == mpmath.mpf("0.5")


class TestEigenvalue:
    def test_zero(self):
        assert qp.eigenvalue(0, ULTRA.V, CTX) == 0

    def test_first(self):
        V = qp.CharVector(1.0, 0.0, 1.0, 0.0)
        assert qp.eigenvalue(1, V, CTX) == pytest.approx(-1.0, rel=1e-15)

    def test_value(self):
        V = qp.CharVector(1.0, 0.0, 1.0, 0.0)
        assert qp.eigenvalue(2, V, CTX) == pytest.approx(-4.5, rel=1e-15)

    def test_classical_trend(self):
        # error against -n(c - (1-n)a) shrinks proportionally to eps
        V = qp.CharVector(1.2, -0.3, 0.7, 0.1)
        target = -5 * (0.7 - (1 - 5) * 1.2)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            lam = qp.eigenvalue(5, V, qp.QContext(1 - eps))
            errs.append(abs(lam - target) / abs(target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] <= 2e-4 * errs[0] / 1e-2


class TestDelta:
    def test_degree_zero(self):
        assert abs(qp.delta(0, ULTRA.V, CTX)) < 1e-15

    def test_degree_one(self):
        assert abs(qp.delta(1, ULTRA.V, CTX)) < 1e-15

    def test_hermite_value_from_recurrence(self):
        # oracle: build phi_3 by the recurrence and read its x^1 coefficient
        c1 = qp.recurrence_C(1, HERMITE0.V, CTX)
        c2 = qp.recurrence_C(2, HERMITE0.V, CTX)
        assert rel(qp.delta(3, HERMITE0.V, CTX), -(c1 + c2)) < 1e-14

    def test_resonance_detected(self):
        # a + c(q-1) = q makes the n = 1 denominator vanish identically
        V = qp.CharVector(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(qp.ResonanceError):
            qp.delta(1, V, CTX)


class TestResonanceGuard:
    # custom(-1, 1, c, 1/5) at q = 1/2: the C_2 denominator vanishes at c = 2
    @staticmethod
    def vector(c):
        return qp.CharVector(-1, 1, c, Fraction(1, 5))

    def test_float_guard_is_1e13_of_the_largest_term(self):
        import math

        from qsympoly.sympoly import RESONANCE_GUARD, _resonant

        assert RESONANCE_GUARD == 1e-13
        edge = 1e-13 * 3.0
        for den in (edge, -edge):
            assert _resonant(den, 3.0, -2.5, 0.5)
            assert not _resonant(math.nextafter(den, 2 * den), 3.0, -2.5, 0.5)
        assert _resonant(0.0, 0.0, -0.0)

    @pytest.mark.parametrize("dps,prec", [(30, 103), (40, 136)])
    def test_mpf_guard_scales_with_the_precision(self, dps, prec):
        import mpmath

        from qsympoly.sympoly import _resonant

        with mpmath.workdps(dps):
            assert mpmath.mp.prec == prec
            f = mpmath.mpf
            edge = mpmath.ldexp(1e-13, 53 - prec) * 3
            assert _resonant(edge, f(3), f(-2.5), f(0.5))
            assert _resonant(-edge, f(3), f(-2.5))
            assert not _resonant(edge + mpmath.ldexp(edge, 2 - prec), f(3), f(-2.5))
            # a float guard would call this vanishing
            assert not _resonant(f(1e-20), f(3), f(-3))

    exact = st.one_of(st.integers(), st.fractions())

    @given(exact, exact, st.sampled_from(
        [0, 1, -1, Fraction(1, 10**30), Fraction(-7, 2**200), Fraction(10**9, 3)]))
    @example(0, 0, 0)
    @example(Fraction(0), Fraction(0), 0)
    def test_exact_vanishes_only_at_zero(self, t1, t3, off):
        # t2 puts the sum `off` away from 0: resonant exactly at off = 0,
        # all three terms zero at t1 = t3 = off = 0
        from qsympoly.sympoly import _resonant

        t2 = off - t1 - t3
        den = t1 + t2 + t3
        assert den == off and type(den) in (int, Fraction)
        assert _resonant(den, t1, t2, t3) is (off == 0)

    def test_exact_resonance_raises(self):
        ctx = qp.QContext(Fraction(1, 2))
        with pytest.raises(qp.ResonanceError, match="C_2"):
            qp.recurrence_C(2, self.vector(Fraction(2)), ctx)
        with pytest.raises(qp.ResonanceError, match="C_2"):
            qp.recurrence_C(2, qp.CharVector(-1.0, 1.0, 2.0, 0.2), qp.QContext(0.5))

    def test_exact_near_resonance_is_computed(self):
        # 10^-30 off the resonance: a float guard would call it vanishing
        ctx = qp.QContext(Fraction(1, 2))
        V = self.vector(2 + Fraction(1, 10**30))
        C2 = qp.recurrence_C(2, V, ctx)
        assert type(C2) is Fraction and C2 == qp.recurrence_C_even(1, V, ctx)

    def test_mp40_near_resonance_is_computed(self):
        import mpmath

        def C2(dps):
            with mpmath.workdps(dps):
                f = mpmath.mpf
                V = qp.CharVector(f(-1), f(1), 2 + f(10) ** -20, f(1) / 5)
                return qp.recurrence_C(2, V, qp.QContext(f(1) / 2))

        got = C2(40)
        with mpmath.workdps(100):
            want = C2(100)
            assert abs(got - want) <= 1e-19 * abs(want)


class TestRecurrenceC:
    def test_hermite_values(self):
        assert rel(qp.recurrence_C(1, HERMITE0.V, CTX), 2.0 / 3.0) < 1e-15
        assert rel(qp.recurrence_C(2, HERMITE0.V, CTX), 0.5) < 1e-15

    def test_telescoping_named(self):
        for fam in (HERMITE0, ULTRA, qp.make_chebyshev5(CTX)):
            for n in range(1, 21):
                c = qp.recurrence_C(n, fam.V, CTX)
                dn = qp.delta(n, fam.V, CTX)
                dn1 = qp.delta(n + 1, fam.V, CTX)
                assert rel_scaled(c, dn - dn1, max(abs(dn), abs(dn1))) < 1e-12

    def test_telescoping_random(self):
        for V in random_char_vectors(3, CTX):
            for n in range(1, 21):
                c = qp.recurrence_C(n, V, CTX)
                dn = qp.delta(n, V, CTX)
                dn1 = qp.delta(n + 1, V, CTX)
                assert rel_scaled(c, dn - dn1, max(abs(dn), abs(dn1))) < 1e-12

    def test_parity_forms_match_general(self):
        vs = random_char_vectors(3, CTX) + [HERMITE0.V, ULTRA.V]
        for V in vs:
            for m in range(0, 11):
                if m > 0:
                    g = qp.recurrence_C(2 * m, V, CTX)
                    assert rel(qp.recurrence_C_even(m, V, CTX), g) < 1e-12
                g = qp.recurrence_C(2 * m + 1, V, CTX)
                assert rel(qp.recurrence_C_odd(m, V, CTX), g) < 1e-12

    def test_ultraspherical_display(self):
        # tabulated parity displays for the q-ultraspherical family
        for q in (0.3, 0.5, 0.9):
            ctx = qp.QContext(q)
            fam = qp.make_ultraspherical(0.4, 0.7, ctx)
            for m in range(1, 8):
                assert rel(
                    qp.recurrence_C(2 * m, fam.V, ctx),
                    oracle_C_even_ultraspherical(m, 0.4, 0.7, q),
                ) < 1e-12
            for m in range(0, 8):
                assert rel(
                    qp.recurrence_C(2 * m + 1, fam.V, ctx),
                    oracle_C_odd_ultraspherical(m, 0.4, 0.7, q),
                ) < 1e-12

    def test_hermite_display(self):
        for q in (0.3, 0.5, 0.9):
            ctx = qp.QContext(q)
            for p in (0.0, 0.3):
                fam = qp.make_hermite(p, ctx)
                for m in range(1, 8):
                    assert rel(
                        qp.recurrence_C(2 * m, fam.V, ctx),
                        oracle_C_even_hermite(m, p, q),
                    ) < 1e-13
                for m in range(0, 8):
                    assert rel(
                        qp.recurrence_C(2 * m + 1, fam.V, ctx),
                        oracle_C_odd_hermite(m, p, q),
                    ) < 1e-13


def _closed_form_C_terms(n, V, ctx):
    # the closed form with every factor formed per n, verbatim as it stood
    # before its n-independent factors were shared
    from qsympoly.sympoly import _a_eff, _checked_den
    from qsympoly.qcore import sigma_parity

    q = ctx.q
    a, b, c, d = V.as_tuple()
    ae = _a_eff(V, q)
    sn = sigma_parity(n)
    sn1 = sigma_parity(n - 1)
    den = _checked_den(
        a * a * q**4, q ** (4 * n) * ae * ae, -a * (q**3 + q) * q ** (2 * n) * ae, n
    )
    t1 = q ** (2 * n) * ae * ((d - d * q) * sn - b)
    t2 = q**n * (a * (b * (q * q + 1) + d * (q - 1) * q * q) + b * c * (q - 1))
    t3 = -(a * q * q * (b + d * (q - 1) * sn1))
    return q ** (n + 1) * (t1 + t2 + t3) / den, (t1, t2, t3)


class TestSharedCFactors:
    """The C_n of the shared n-independent factors, bit for bit the closed form's."""

    @staticmethod
    def outcome(f, *args):
        try:
            return repr(f(*args))
        except qp.ResonanceError as exc:
            return f"ResonanceError: {exc}"

    def assert_bit_identical(self, cases):
        from qsympoly.sympoly import _C_terms

        resonant = 0
        for V, ctx in cases:
            shared = _C_terms(V, ctx)
            for n in range(1, 17):
                want = self.outcome(_closed_form_C_terms, n, V, ctx)
                resonant += want.startswith("ResonanceError")
                assert self.outcome(shared, n) == want, (V, ctx.q, n)
                assert self.outcome(qp.recurrence_C, n, V, ctx) == (
                    self.outcome(lambda: _closed_form_C_terms(n, V, ctx)[0]))
        return resonant

    @staticmethod
    def registry(ctx):
        return [fam.V for fam in (
            qp.make_ultraspherical(0.4, 0.7, ctx), qp.make_ultraspherical(-0.3, 1.2, ctx),
            qp.make_chebyshev5(ctx), qp.make_chebyshev6(ctx),
            qp.make_hermite(0, ctx), qp.make_hermite(0.3, ctx),
        )]

    def test_float(self):
        r = rng(17)
        cases = []
        for _ in range(60):
            q = r.uniform(0.05, 0.95)
            a, b, c, d = (r.uniform(-3, 3) for _ in range(4))
            cases.append((qp.CharVector(a, b, c, d), qp.QContext(q)))
        for q in (0.3, 0.5, 0.9):
            cases += [(V, qp.QContext(q)) for V in self.registry(qp.QContext(q))]
        # custom(-1, 1, 2, 1/5) at q = 1/2: the C_2 denominator vanishes;
        # b = +-0.0 gives zero terms whose sign the closed form fixes
        cases += [(qp.CharVector(*V), CTX) for V in (
            (-1.0, 1.0, 2.0, 0.2), (1.0, 0.0, 0.5, 0.3), (1.0, -0.0, 0.5, -0.3))]
        assert self.assert_bit_identical(cases) >= 1

    def test_mpf_30_digits(self):
        import mpmath

        r = rng(18)
        with mpmath.workdps(30):
            f = mpmath.mpf
            cases = []
            for _ in range(30):
                q = f(r.uniform(0.05, 0.95)) / 3 + f(1) / 3
                V = qp.CharVector(*(f(r.uniform(-3, 3)) / 7 for _ in range(4)))
                cases.append((V, qp.QContext(q)))
            for q in ("0.3", "0.9"):
                ctx = qp.QContext(f(q))
                cases += [(V, ctx) for V in self.registry(ctx)]
            cases.append((qp.CharVector(f(-1), f(1), f(2), f(1) / 5), qp.QContext(f(1) / 2)))
            assert self.assert_bit_identical(cases) >= 1

    def test_fraction(self):
        r = rng(19)
        cases = []
        while len(cases) < 30:
            a, b, c, d = (Fraction(r.randint(-30, 30), r.randint(1, 10)) for _ in range(4))
            if a or c:
                cases.append((qp.CharVector(a, b, c, d),
                              qp.QContext(Fraction(r.randint(1, 19), 20))))
        half = qp.QContext(Fraction(1, 2))
        cases += [(V, half) for V in self.registry(half)]
        cases.append((TestResonanceGuard.vector(Fraction(2)), half))
        assert self.assert_bit_identical(cases) >= 1


def fraction(x):
    """The exact value of a float, int or mpf."""
    if hasattr(x, "_mpf_"):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp
    return Fraction(x)


class TestDyadic:
    """_dyadic reads V and q as exact int ratios over powers of two."""

    @staticmethod
    def assert_exact(V, q):
        from qsympoly.sympoly import _dyadic

        ints, (Q, E) = _dyadic(V, q)
        assert all(type(v) is int for v in (*ints, Q, E))
        assert E > 0 and E & (E - 1) == 0
        assert Fraction(Q, E) == fraction(q)
        # one power-of-two scale F for all four entries
        nonzero = [(i, fraction(v)) for i, v in zip(ints, V.as_tuple()) if v]
        scale = nonzero[0][0] / nonzero[0][1]
        assert scale.numerator & (scale.numerator - 1) == 0 and scale.denominator == 1
        assert all(i == scale * v for i, v in zip(ints, map(fraction, V.as_tuple())))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(-1e30, 1e30, allow_nan=False).filter(bool),
                              st.integers(-10**20, 10**20).filter(bool)),
                    min_size=4, max_size=4),
           st.floats(1e-300, 1, exclude_max=True, exclude_min=True))
    def test_float_and_int(self, V, q):
        self.assert_exact(qp.CharVector(*V), q)

    def test_mpf(self):
        import mpmath

        r = rng(31)
        for dps in (15, 30, 100):
            with mpmath.workdps(dps):
                f = mpmath.mpf
                for _ in range(10):
                    V = qp.CharVector(*(f(r.uniform(-3, 3)) / 7 * 2 ** r.randint(-200, 200)
                                        for _ in range(3)), f(r.randint(-9, 9)) * 2**70)
                    self.assert_exact(V, f(r.uniform(0.01, 0.99)) / 3)

    @pytest.mark.parametrize("V, q", [
        ((-1, 1, -1.5, 0.2), Fraction(1, 2)),
        ((-1, 1, Fraction(-3, 2), 0.2), 0.5),
    ])
    def test_other_types_raise(self, V, q):
        # a Fraction has no dyadic form in general: rounding it would be silent
        from qsympoly.sympoly import _dyadic

        with pytest.raises(qp.QSymPolyError, match="needs float, int or mpf input, not Fraction"):
            _dyadic(qp.CharVector(*V), q)


class TestExactC:
    """The Gram's integer C_n: num / den equals _C_terms over Fraction exactly."""

    @staticmethod
    def assert_exact(V, q, n_max):
        from qsympoly.sympoly import _C_exact, _C_terms, _dyadic

        exact = _C_terms(qp.CharVector(*map(fraction, V.as_tuple())),
                         qp.QContext(fraction(q)))
        pairs = _C_exact(*_dyadic(V, q), n_max)
        assert len(pairs) == n_max and all(den > 0 for _, den in pairs)
        for n, (num, den) in enumerate(pairs, 1):
            assert Fraction(num, den) == exact(n)[0], (V, q, n)

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    def test_registry_to_n_max_limit(self, q):
        from qsympoly.cli import N_MAX_LIMIT

        for V in TestSharedCFactors.registry(qp.QContext(q)):
            self.assert_exact(V, q, N_MAX_LIMIT)

    def test_mpf_30_digits(self):
        # mantissas of 100 bits, exponents spread over the four entries
        import mpmath

        r = rng(23)
        with mpmath.workdps(30):
            f = mpmath.mpf
            for _ in range(20):
                q = f(r.uniform(0.05, 0.95)) / 3 + f(1) / 3
                V = qp.CharVector(*(f(r.uniform(-3, 3)) / 7 * 2 ** r.randint(-40, 40)
                                    for _ in range(4)))
                self.assert_exact(V, q, 12)

    def test_100_digits_to_n_max_limit(self):
        # q = 0.9 read at 100 digits, as the command line reads it under
        # QSYMPOLY_PRECISION=100: the widest ints the Gram can ask for
        import mpmath

        from qsympoly.cli import N_MAX_LIMIT

        with mpmath.workdps(100):
            q = mpmath.mpf("0.9")
            assert -q._mpf_[2] > 300
            V = qp.make_hermite(mpmath.mpf("0.3"), qp.QContext(q)).V
            self.assert_exact(V, q, N_MAX_LIMIT)

    def test_only_an_exact_zero_is_resonant(self):
        import mpmath

        from qsympoly.sympoly import _C_exact, _dyadic

        # custom(-1, 1, 2, d) at q = 1/2: the C_1 and C_2 denominators are exactly zero
        V = qp.CharVector(*(mpmath.mpf(v) for v in (-1, 1, 2, 0.2)))
        assert _C_exact(*_dyadic(V, mpmath.mpf(0.5)), 0) == []
        with pytest.raises(qp.ResonanceError, match="^C_1 denominator vanishes$"):
            _C_exact(*_dyadic(V, mpmath.mpf(0.5)), 2)
        # 2^-100 off it, where a float guard would call it vanishing
        with mpmath.workprec(128):
            self.assert_exact(qp.CharVector(-1, 1, 2 + mpmath.ldexp(1, -100), 0.2), 0.5, 4)


class TestBuildMonic:
    def test_degree_zero_and_one(self):
        assert qp.build_monic(0, ULTRA.V, CTX).coeffs == (1,)
        assert qp.build_monic(1, ULTRA.V, CTX).coeffs == (0, 1)

    def test_hermite_degree_two(self):
        p = qp.build_monic(2, HERMITE0.V, CTX)
        assert p.coeffs[2] == 1 and p.coeffs[1] == 0
        assert rel(p.coeffs[0], -2.0 / 3.0) < 1e-15

    def test_coefficient_matches_delta(self):
        for fam in (HERMITE0, ULTRA):
            for n in range(2, 16):
                poly = qp.build_monic(n, fam.V, CTX)
                assert rel(poly.coeffs[n - 2], qp.delta(n, fam.V, CTX)) < 1e-12

    def test_parity_is_bitwise(self):
        for n in range(16):
            poly = qp.build_monic(n, ULTRA.V, CTX)
            for x in (0.123, 0.77, 1.9):
                assert poly(-x) == (-1) ** n * poly(x)

    def test_no_float_result_for_mpf_input(self):
        # mpf(0.9) == 0.9 with equal hashes, so a ladder memoized on
        # (n, V, ctx) answered mpf requests with float coefficients cached
        # by an earlier float call
        import mpmath

        fam = qp.make_hermite(0.3, qp.QContext(0.9))
        qp.build_monic(8, fam.V, fam.ctx)
        for dps in (15, 60):
            with mpmath.workdps(dps):
                V = qp.CharVector(*(mpmath.mpf(v) for v in fam.V.as_tuple()))
                ctx = qp.QContext(mpmath.mpf(0.9))
                poly = qp.build_monic(8, V, ctx)
                assert all(isinstance(c, mpmath.mpf) for c in poly.coeffs[:-1:2])
        with mpmath.workdps(60):
            C = [qp.recurrence_C(k, V, ctx) for k in range(1, 8)]
            for x in (mpmath.mpf("0.3"), mpmath.mpf("1.7")):
                prev, cur = 1, x
                for ck in C:
                    prev, cur = cur, x * cur - ck * prev
                assert abs(poly(x) - cur) <= mpmath.mpf("1e-50") * poly.magnitude(x)

    def test_invalid_polynomial_rejected(self):
        with pytest.raises(ValueError):
            qp.SymPolynomial(2, (0.0, 1.0, 1.0))  # odd power in an even polynomial
        with pytest.raises(ValueError):
            qp.SymPolynomial(2, (0.5, 0.0, 2.0))  # not monic

    @pytest.mark.parametrize("arithmetic", ["float", "mpf30", "Fraction"])
    def test_is_the_last_rung_of_the_ladder(self, arithmetic):
        # build_monic wraps only the last coefficient list of the ladder's
        # recurrence: the same polynomial, bit for bit
        import mpmath

        from qsympoly.families import FAMILIES

        params = {"alpha": 0.4, "beta": 0.7, "p": 0.3}
        kind = {"float": float, "mpf30": mpmath.mpf, "Fraction": Fraction}[arithmetic]
        with mpmath.workdps(30):
            for factory, names in FAMILIES.values():
                fam = factory(*(params[k] for k in names), qp.QContext(0.5))
                V, ctx = fam.V, fam.ctx
                if kind is not float:
                    V = qp.CharVector(*map(kind, V.as_tuple()))
                    ctx = qp.QContext(kind(0.5))
                ladder = qp.monic_ladder(64, V, ctx)
                for n in range(65):
                    assert repr(qp.build_monic(n, V, ctx)) == repr(ladder[n])
                    if n in (0, 1, 36, 64):
                        assert repr(qp.monic_ladder(n, V, ctx)[n]) == repr(ladder[n])
        assert isinstance(ladder[64].coeffs[0], kind)
        with pytest.raises(ValueError, match="^degree must be nonnegative$"):
            qp.build_monic(-1, V, ctx)


def _horner_reference(coeffs, x):
    # an independent Horner scheme in x**2 for coefficients of one parity
    degree = len(coeffs) - 1
    t = x * x
    acc = coeffs[degree]
    for k in range(degree - 2, degree % 2 - 1, -2):
        acc = acc * t + coeffs[k]
    return acc * x ** (degree % 2)


class TestEvaluation:
    @pytest.mark.parametrize("arithmetic", ["float", "mpf30"])
    def test_value_and_magnitude_are_bitwise(self, arithmetic):
        # the value is the Horner scheme of the c_k at x, the magnitude
        # that of the |c_k| at |x|, bit for bit
        import mpmath

        r = rng(7)
        with mpmath.workdps(30):
            kind = float if arithmetic == "float" else mpmath.mpf
            ctx = qp.QContext(kind(0.7))
            for V in (HERMITE0.V, ULTRA.V, qp.CharVector(-1.0, 1.0, -1.5, 0.2)):
                V = qp.CharVector(*map(kind, V.as_tuple()))
                for poly in qp.monic_ladder(24, V, ctx):
                    for x in [kind(r.uniform(-2, 2)) for _ in range(5)] + [kind(0), kind(-1)]:
                        assert repr(poly(x)) == repr(_horner_reference(poly.coeffs, x))
                        want = _horner_reference(tuple(map(abs, poly.coeffs)), abs(x))
                        assert repr(poly.magnitude(x)) == repr(want)


class TestExplicitForm:
    def test_degree_zero_and_one(self):
        assert qp.eval_explicit(0, ULTRA.V, CTX, 0.37) == 1
        assert qp.eval_explicit(1, ULTRA.V, CTX, 0.37) == 0.37

    def test_matches_recurrence_after_normalization(self):
        fam = qp.make_hermite(0.3, CTX)
        poly = qp.build_monic(4, fam.V, CTX)
        got = qp.eval_explicit_monic(4, fam.V, CTX, 0.7)
        assert rel(got, poly(0.7)) < 1e-11

    def test_monic_forms_the_ratio_products_once(self, monkeypatch):
        # each ratio of the explicit form reads one q-number in its
        # numerator and one in its denominator
        from qsympoly import sympoly

        calls = []
        real = sympoly.q_number
        monkeypatch.setattr(sympoly, "q_number", lambda z, ctx: calls.append(z) or real(z, ctx))
        value = qp.eval_explicit_monic(9, ULTRA.V, CTX, 0.3)
        assert len(calls) == 2 * (9 // 2)
        monkeypatch.undo()
        assert value == qp.eval_explicit(9, ULTRA.V, CTX, 0.3) / sympoly._explicit_coeffs(
            9, ULTRA.V, CTX)[0]

    def test_zero_denominator_reported(self):
        # b [1]_q + d q = 0 at d = -b [1]/q = 1/q
        V = qp.CharVector(1.0, -1.0, 1.0, 2.0)
        with pytest.raises(qp.ZeroDenominatorError):
            qp.eval_explicit(2, V, CTX, 0.4)

    def test_three_form_sweep(self):
        r = rng()
        for fam in (qp.make_hermite(0.3, CTX), ULTRA):
            mfs = {n: qp.monic_factor(n, fam.V, CTX) for n in range(13)}
            for n in range(13):
                poly = qp.build_monic(n, fam.V, CTX)
                for _ in range(6):
                    x = r.uniform(-fam.support, fam.support)
                    scale = 1e-3 * poly.magnitude(x)
                    vr = poly(x)
                    ve = qp.eval_explicit_monic(n, fam.V, CTX, x)
                    vh = mfs[n] * qp.eval_hypergeometric(n, fam.V, CTX, x)
                    assert rel_scaled(vr, ve, scale) < 1e-10
                    assert rel_scaled(vr, vh, scale) < 1e-10
                    assert rel_scaled(ve, vh, scale) < 1e-10


class TestExplicitCoeffsByDegree:
    """The degree-batched explicit coefficients, bit for bit _explicit_coeffs's,
    errors included."""

    @staticmethod
    def outcome(f, n):
        # a Fraction by its exact terms: the repr of a long one exceeds
        # the int-to-str digit limit
        try:
            return [(v.numerator, v.denominator) if isinstance(v, Fraction) else repr(v)
                    for v in f(n)]
        except qp.ZeroDenominatorError as exc:
            return repr(exc)

    def assert_bit_identical(self, real, full=False):
        from qsympoly.sympoly import _explicit_coeffs, _explicit_coeffs_by_degree

        r = rng(31)
        zeros = 0
        for q in ("0.3", "0.99", "0.999", "0.9999"):
            ctx = qp.QContext(real(q))
            # the old form's q-binomials cost seconds over the whole registry
            # at 30 digits and in Fraction, so those run chebyshev6 alone
            registry = TestSharedCFactors.registry(ctx)
            vectors = registry if full else registry[3:4]
            vectors += [qp.CharVector(*(real(repr(r.uniform(-3, 3))) for _ in range(4)))
                        for _ in range(3 if full else 0)]
            # b [i] + d q^i = 0 at i = 1 and at i = 3
            vectors += [qp.CharVector(real(1), real(-1), real(1),
                                      qp.q_number(i, ctx) / ctx.q**i) for i in (1, 3)]
            for V in vectors:
                batched = _explicit_coeffs_by_degree(V, ctx, 40)
                for n in range(41):
                    want = self.outcome(lambda n: _explicit_coeffs(n, V, ctx), n)
                    zeros += isinstance(want, str)
                    assert self.outcome(batched, n) == want, (V, q, n)
        return zeros

    # per q, the i = 1 vanishing stops the 20 even n >= 2, and i = 3 the
    # 38 n >= 3
    ZEROS = 4 * (20 + 38)

    def test_float(self):
        assert self.assert_bit_identical(float, full=True) == self.ZEROS

    def test_mpf_30_digits(self):
        import mpmath

        with mpmath.workdps(30):
            assert self.assert_bit_identical(mpmath.mpf) == self.ZEROS

    def test_fraction(self):
        assert self.assert_bit_identical(Fraction) == self.ZEROS


class TestHypergeometricForm:
    def test_x_zero(self):
        assert qp.eval_hypergeometric(4, ULTRA.V, CTX, 0.0) == 1.0
        assert qp.eval_hypergeometric(5, ULTRA.V, CTX, 0.0) == 0.0

    def test_needs_nonzero_ab(self):
        V = qp.CharVector(0.0, -1.0, 2.0, 0.6)
        with pytest.raises(ValueError):
            qp.eval_hypergeometric(3, V, CTX, 0.5)

    def test_proportional_to_explicit(self):
        # the ratio explicit/2phi1 is constant in x (it is the leading product)
        from qsympoly.sympoly import _explicit_coeffs

        r = rng(7)
        for n in range(2, 11):
            lead = _explicit_coeffs(n, ULTRA.V, CTX)[0]
            mf = qp.monic_factor(n, ULTRA.V, CTX)
            for _ in range(5):
                x = r.uniform(0.05, 0.95)
                ve = qp.eval_explicit(n, ULTRA.V, CTX, x)
                vh = qp.eval_hypergeometric(n, ULTRA.V, CTX, x)
                assert rel(ve / vh, lead * mf) < 1e-11

    def test_parameters_match_family_display(self):
        # 2phi1 parameter map of the q-ultraspherical solution
        q = 0.5
        theta = 0.4 + 0.7 + 1
        for n in range(0, 9):
            s = n % 2
            (u1, u2), (l1,), base, zc = qp.hypergeometric_parameters(n, ULTRA.V, CTX)
            assert rel(u1, q ** (s - n)) < 1e-14
            assert rel(u2, q ** (n + s - 1) * (theta * q * (q * q - 1) + 1)) < 1e-14
            assert rel(l1, q ** (2 * s + 1) * (0.4 * q * (q * q - 1) + 1)) < 1e-14
            assert base == q * q
            assert rel(zc, q * q) < 1e-14  # -a q^2 / b with a = -1, b = 1

    def test_hermite_parameter_collapse(self):
        # a + c(q-1) = 0 makes the second upper parameter exactly zero
        (u1, u2), (l1,), base, zc = qp.hypergeometric_parameters(6, HERMITE0.V, CTX)
        assert u2 == 0.0
        assert rel(zc, 0.5**2 * (1 - 0.25)) < 1e-15

    def test_exact_near_terminator_sums_to_n_over_2(self):
        # u2 = q^-2 (1 + 1e-10) is close to, but not, a terminator of the
        # series; the sum must still run to k = n // 2 and equal the recurrence
        q = Fraction(1, 2)
        a, b, d, n = Fraction(-1), Fraction(1), Fraction(1, 5), 8
        u2 = q**-2 * (1 + Fraction(1, 10**10))
        c = (a * u2 * q ** (1 - n) - a) / (q - 1)  # solves u2 = (a + c(q-1)) q^(n-1) / a
        V = qp.CharVector(a, b, c, d)
        ctx = qp.QContext(q)
        assert qp.hypergeometric_parameters(n, V, ctx)[0][1] == u2
        mf = qp.monic_factor(n, V, ctx)
        poly = qp.build_monic(n, V, ctx)
        for x in (Fraction(1, 3), Fraction(-5, 7)):
            assert mf * qp.eval_hypergeometric(n, V, ctx, x) == poly(x)


class TestMonicFactor:
    def test_low_degrees(self):
        assert qp.monic_factor(0, ULTRA.V, CTX) == 1
        assert qp.monic_factor(1, ULTRA.V, CTX) == 1

    def test_matches_recurrence_pointwise(self):
        for n in range(2, 9):
            mf = qp.monic_factor(n, HERMITE0.V, CTX)
            poly = qp.build_monic(n, HERMITE0.V, CTX)
            for x in (0.21, 0.64, 1.05):
                got = mf * qp.eval_hypergeometric(n, HERMITE0.V, CTX, x)
                assert rel_scaled(got, poly(x), 1e-3 * poly.magnitude(x)) < 1e-11

    def test_odd_degree_display(self):
        # for odd n the tabulated prefactor can be evaluated directly:
        # q^(1-n) (-b/a)^M (q^2;q^2)_M (l1;q^2)_M
        #   / ((q^(1-n);q^2)_M (u2;q^2)_M)   after cancelling (q^-n;q^2)_M
        q = 0.5
        for n in (3, 5, 7, 9):
            M = n // 2
            (u1, u2), (l1,), base, _ = qp.hypergeometric_parameters(n, ULTRA.V, CTX)
            num = qp.q_shifted_factorial(base, M, CTX, base=base) * qp.q_shifted_factorial(
                l1, M, CTX, base=base
            )
            den = qp.q_shifted_factorial(
                q ** (1 - n), M, CTX, base=base
            ) * qp.q_shifted_factorial(u2, M, CTX, base=base)
            display = q ** (1 - n) * (-ULTRA.V.b / ULTRA.V.a) ** M * num / den
            assert rel(qp.monic_factor(n, ULTRA.V, CTX), display) < 1e-13

    @pytest.mark.parametrize("make", [
        lambda ctx: qp.make_ultraspherical(Fraction(2, 5), Fraction(7, 10), ctx),
        qp.make_chebyshev5,
        qp.make_chebyshev6,
    ], ids=["ultraspherical", "chebyshev5", "chebyshev6"])
    def test_exact_for_registry_family(self, make):
        # the registry gives these vectors int a = -1 and b = 1, whose true
        # quotient -b/a is a float; the 2phi1 form must stay exact
        ctx = qp.QContext(Fraction(1, 2))
        V = make(ctx).V
        assert (type(V.a), type(V.b)) == (int, int)
        for n in range(7):
            mf = qp.monic_factor(n, V, ctx)
            assert type(mf) is Fraction
            poly = qp.build_monic(n, V, ctx)
            for x in (Fraction(1, 3), Fraction(-5, 7)):
                assert mf * qp.eval_hypergeometric(n, V, ctx, x) == poly(x)

    def test_float_overflow_is_typed(self):
        with pytest.raises(qp.QSymPolyError, match="q\\^-64 overflows"):
            qp.monic_factor(64, ULTRA.V, qp.QContext(1e-5))


class TestOdeResidual:
    def test_degree_zero_exact(self):
        t1, t2, t3 = qp.ode_residual_terms(0, ULTRA.V, CTX, 0.4)
        assert t1 + t2 + t3 == 0.0

    def test_degree_one_small(self):
        x = 0.8
        t1, t2, t3 = qp.ode_residual_terms(1, ULTRA.V, CTX, x)
        res = t1 + t2 + t3
        assert abs(res) < 1e-13 * max(abs(x) ** 3, 1.0)

    def test_scaled_residual_sweep(self):
        r = rng(3)
        fams = (ULTRA, qp.make_chebyshev5(CTX), qp.make_chebyshev6(CTX), HERMITE0)
        for fam in fams:
            for n in range(0, 11):
                for _ in range(5):
                    x = r.uniform(0.05, 0.95) * fam.support
                    t1, t2, t3 = qp.ode_residual_terms(n, fam.V, CTX, x)
                    scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
                    assert abs(t1 + t2 + t3) <= 1e-10 * scale


class TestClassify:
    def test_hermite_positive_definite(self):
        out = qp.classify_orthogonality(HERMITE0.V, CTX, 20)
        assert out.kind == "positive-definite"
        assert not out.zero_indices and not out.negative_indices

    def test_weak_when_b_and_d_vanish(self):
        V = qp.CharVector(1.0, 0.0, 0.7, 0.0)
        out = qp.classify_orthogonality(V, CTX, 12)
        assert out.kind == "weak"
        # every odd coefficient collapses: its numerator factor is b + d(...) = 0
        assert all(n in out.zero_indices for n in (1, 3, 5, 7, 9, 11))

    def test_chebyshev5_positive_definite(self):
        fam = qp.make_chebyshev5(CTX)
        out = qp.classify_orthogonality(fam.V, CTX, 15)
        assert out.kind == "positive-definite"

    @pytest.mark.parametrize("q", [0.3, 0.5])
    def test_decaying_coefficients_are_not_zero(self, q):
        # C_n decays like q^n: below 1e-10 from n = 20 at q = 0.3 and from
        # n = 34 at q = 0.5, and still nonzero up to the CLI's n = 64
        ctx = qp.QContext(q)
        for fam in (qp.make_hermite(0.0, ctx), qp.make_ultraspherical(0.4, 0.7, ctx),
                    qp.make_chebyshev5(ctx)):
            out = qp.classify_orthogonality(fam.V, ctx, 64)
            assert abs(out.coefficients[-1]) < 1e-10
            assert out.kind == "positive-definite" and out.zero_indices == ()

    def test_exact_zero_is_weak(self):
        # c / a = d / b: C_2 is exactly 0
        V = qp.make_custom(-1, 1, -1.5, 1.5, CTX).V
        out = qp.classify_orthogonality(V, CTX, 12)
        assert out.coefficients[1] == 0
        assert out.kind == "weak" and out.zero_indices == (2,)

    def test_hermite_quasi_definite(self):
        # p (1 - q^2) = 3.75 > 1 makes C_1 negative
        out = qp.classify_orthogonality(qp.make_hermite(5.0, CTX).V, CTX, 64)
        assert out.kind == "quasi-definite" and out.negative_indices == (1,)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 12), st.floats(min_value=-1.5, max_value=1.5))
def test_parity_property(n, x):
    poly = qp.build_monic(n, ULTRA.V, CTX)
    assert poly(-x) == (-1) ** n * poly(x)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*(st.fractions(-3, 3, max_denominator=7) for _ in range(4))),
    st.fractions(Fraction(1, 10), Fraction(9, 10), max_denominator=10),
    st.fractions(-2, 2, max_denominator=5),
    st.integers(1, 8),
)
def test_exact_fraction_oracle(abcd, q, x, n):
    # in exact arithmetic each identity holds with equality, not to a tolerance
    a, b, c, d = abcd
    assume(a != 0 or c != 0)
    V = qp.CharVector(a, b, c, d)
    ctx = qp.QContext(q)
    m = n // 2
    C_parity = qp.recurrence_C_odd if n % 2 else qp.recurrence_C_even
    try:
        C = qp.recurrence_C(n, V, ctx)
        phi = qp.build_monic(n, V, ctx)(x)
        t1, t2, t3 = qp.ode_residual_terms(n, V, ctx, x)
        residuals = {
            "telescoping": qp.delta(n, V, ctx) - qp.delta(n + 1, V, ctx) - C,
            "parity": C_parity(m, V, ctx) - C,
            "ode": t1 + t2 + t3,
            "explicit": qp.eval_explicit_monic(n, V, ctx, x) - phi,
        }
        if a != 0 and b != 0:
            hyp = qp.monic_factor(n, V, ctx) * qp.eval_hypergeometric(n, V, ctx, x)
            residuals["2phi1"] = hyp - phi
    except (qp.ResonanceError, qp.ZeroDenominatorError):
        assume(False)
    assert type(phi) is Fraction
    assert residuals == dict.fromkeys(residuals, 0)


@pytest.mark.parametrize("call,error,message", [
    (lambda: qp.weight_star(qp.CharVector(0, -1, 1.5, 0.45), CTX, 0.3),
     ValueError, "the closed-form weight needs a != 0 and b != 0"),
    (lambda: qp.weight_star(qp.CharVector(-1, 0, 1.5, 0.45), CTX, 0.3),
     ValueError, "the closed-form weight needs a != 0 and b != 0"),
    (lambda: qp.SymPolynomial(2, (0, 1)),
     ValueError, "coefficient count must be degree + 1"),
    (lambda: qp.monic_ladder(-1, ULTRA.V, CTX),
     ValueError, "degree must be nonnegative"),
    (lambda: qp.eval_explicit_monic(2, qp.CharVector(1.0, 1.0, -2.0, 0.0), CTX, 0.3),
     qp.ZeroDenominatorError, "leading coefficient of the explicit form vanishes"),
    (lambda: qp.monic_factor(2, qp.CharVector(1.0, 1.0, -2.0, 0.3), CTX),
     qp.ZeroDenominatorError, "factorial ratio in the monic prefactor vanishes"),
    (lambda: qp.continuous_C_limit(2, qp.CharVector(1.0, 1.0, -1.0, 0.0)),
     qp.ZeroDenominatorError, "limit recurrence denominator vanishes"),
    (lambda: qp.q_integral_real_line(lambda t: 1e250 if abs(t) > 1 else 1.0,
                                     qp.JacksonConfig(CTX, 50)),
     qp.DivergenceError, "bilateral Jackson term at n=-50 exceeds 1e200; integral diverges"),
], ids=["weight_star-a0", "weight_star-b0", "sympolynomial-count", "monic_ladder-degree",
        "explicit-leading", "monic_factor", "continuous_C_limit", "real_line-divergence"])
def test_rejected_input_raises(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
