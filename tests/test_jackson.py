import math

import pytest

import qsympoly as qp
from conftest import rel

CTX = qp.QContext(0.5)
CFG = qp.JacksonConfig(CTX)


class TestConfig:
    def test_underflowing_tail_rejected(self):
        with pytest.raises(ValueError):
            qp.JacksonConfig(qp.QContext(0.05), n_terms=512)

    def test_bad_n_terms(self):
        with pytest.raises(ValueError):
            qp.JacksonConfig(CTX, n_terms=0)


class TestZeroTo:
    def test_zero_function(self):
        assert qp.q_integral_zero_to(lambda t: 0.0, 1.0, CFG).value == 0

    def test_unit_function(self):
        v = qp.q_integral_zero_to(lambda t: 1.0, 1.0, CFG).value
        assert v == pytest.approx(1.0, rel=1e-15)

    def test_linear(self):
        v = qp.q_integral_zero_to(lambda t: t, 1.0, CFG).value
        assert v == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_zero_endpoint(self):
        assert qp.q_integral_zero_to(lambda t: 1 / t, 0.0, CFG) == (0.0, 0.0)

    def test_monomial_closed_form(self):
        # integral of t^k over [0, x] is x^(k+1) (1-q)/(1-q^(k+1))
        q = 0.5
        for k in range(21):
            for x in (1.0, 0.7, -1.3):
                got = qp.q_integral_zero_to(lambda t, k=k: t**k, x, CFG).value
                want = x ** (k + 1) * (1 - q) / (1 - q ** (k + 1))
                assert rel(got, want) < 1e-12

    def test_nonfinite_integrand(self):
        with pytest.raises(ValueError):
            qp.q_integral_zero_to(lambda t: float("nan"), 1.0, CFG)


class TestInterval:
    def test_equal_endpoints(self):
        v = qp.q_integral(lambda t: t * t, 0.8, 0.8, CFG).value
        assert v == 0

    def test_zero_lower_endpoint(self):
        f = lambda t: t**3 - t
        assert (
            qp.q_integral(f, 0.0, 0.9, CFG).value
            == qp.q_integral_zero_to(f, 0.9, CFG).value
        )

    def test_fundamental_theorem(self):
        # integral of D_q(t^3) over [a, b] equals b^3 - a^3
        a, b = 0.3, 0.9
        g = lambda t: qp.q_derivative(lambda s: s**3, t, CTX)
        got = qp.q_integral(g, a, b, CFG).value
        assert rel(got, b**3 - a**3) < 1e-13

    def test_linearity(self):
        f = lambda t: t * t
        g = lambda t: math.sin(t)
        al, be = 1.7, -0.4
        lhs = qp.q_integral(lambda t: al * f(t) + be * g(t), 0.2, 1.1, CFG).value
        rhs = (
            al * qp.q_integral(f, 0.2, 1.1, CFG).value
            + be * qp.q_integral(g, 0.2, 1.1, CFG).value
        )
        assert rel(lhs, rhs) < 1e-13


class TestSymmetric:
    def test_odd_integrand_exactly_zero(self):
        v = qp.q_integral_symmetric(lambda t: t**3 - 2 * t, 1.0, CFG).value
        assert v == 0.0

    def test_unit_function(self):
        v = qp.q_integral_symmetric(lambda t: 1.0, 1.0, CFG).value
        assert v == pytest.approx(2.0, rel=1e-15)

    def test_even_matches_doubled_half_line(self):
        f = lambda t: t * t + 0.3
        sym = qp.q_integral_symmetric(f, 0.8, CFG).value
        half = 2 * qp.q_integral_zero_to(f, 0.8, CFG).value
        assert rel(sym, half) < 1e-14

    def test_nonfinite_mirror_side(self):
        # only f(-x) is bad; the error names the mirrored point itself
        with pytest.raises(ValueError, match=r"x=-1\.0"):
            qp.q_integral_symmetric(lambda t: math.nan if t < 0 else 1.0, 1.0, CFG)


class TestRealLine:
    def test_odd_function(self):
        cfg = qp.JacksonConfig(CTX, n_terms=64)
        assert qp.q_integral_real_line(lambda t: t**3, cfg).value == 0.0

    def test_compact_support_matches_symmetric(self):
        # decaying even integrand: both grids resolve the same mass
        f = lambda t: 1.0 / (1.0 + t * t) ** 3
        cfg = qp.JacksonConfig(CTX, n_terms=128)
        whole = qp.q_integral_real_line(f, cfg).value
        big = qp.JacksonConfig(CTX, n_terms=400)
        sym = qp.q_integral_symmetric(f, 0.5**-128, big).value
        assert rel(whole, sym) < 1e-12

    def test_short_grid_truncates(self):
        # exp(-t^2) decays at both ends; 100 points leave |term| = 4.1e-10
        # at n = +100, a grid too short rather than a divergent integral
        f = lambda t: math.exp(-t * t)
        ctx = qp.QContext(0.8)
        with pytest.raises(qp.TruncationError, match=r"n -> \+inf .* at n = 100 "):
            qp.q_integral_real_line(f, qp.JacksonConfig(ctx, n_terms=100))
        value = qp.q_integral_real_line(f, qp.JacksonConfig(ctx, n_terms=256)).value
        assert rel(value, 1.5886220685980361) < 1e-15

    def test_constant_diverges(self):
        with pytest.raises(qp.DivergenceError):
            qp.q_integral_real_line(lambda t: 1.0, qp.JacksonConfig(CTX, n_terms=64))


class TestTailEstimate:
    def test_monotone_truncation(self):
        # doubling the grid moves the value by less than the reported tail
        f = lambda t: 1.0 / (1.0 + t * t)
        ctx = qp.QContext(0.9)
        v1 = qp.q_integral_zero_to(f, 1.0, qp.JacksonConfig(ctx, n_terms=128))
        v2 = qp.q_integral_zero_to(f, 1.0, qp.JacksonConfig(ctx, n_terms=256))
        assert abs(v2.value - v1.value) <= v1.tail_estimate
        assert v2.tail_estimate < v1.tail_estimate
