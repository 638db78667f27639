import functools
import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsympoly as qp
from conftest import (
    NEAR_ONE_MAX_TERMS,
    Q_NEAR_ONE,
    mp40_chebyshev6_near_one,
    oracle_hermite_star_mp40,
    oracle_qpoch_inf,
    rel,
)
from qsympoly import weights

CTX = qp.QContext(0.5)
Q = 0.5
ULTRA = qp.make_ultraspherical(0.4, 0.7, CTX)
HERM = qp.make_hermite(0.3, CTX)
HERM0 = qp.make_hermite(0.0, CTX)


class TestPearsonRatio:
    def test_at_zero(self):
        V = ULTRA.V
        want = (V.b + V.d * (Q - 1)) / (Q * Q * V.b)
        assert rel(qp.pearson_ratio(V, CTX, 0.0), want) < 1e-15

    def test_hermite_display(self):
        # (-p q^2 + p + 1) / (q^2 + (q^2 - 1) q^4 x^2)
        p = 0.3
        for x in (0.2, 0.8, 1.1):
            want = (-p * Q * Q + p + 1) / (Q * Q + (Q * Q - 1) * Q**4 * x * x)
            assert rel(qp.pearson_ratio(HERM.V, CTX, x), want) < 1e-14

    def test_ultraspherical_display(self):
        # (q(q^2-1)(x^2(alpha+beta+1) - alpha) + x^2 - 1) / (q^2(q^2 x^2 - 1))
        al, be = 0.4, 0.7
        for x in (0.2, 0.5, 0.9):
            want = (Q * (Q * Q - 1) * (x * x * (al + be + 1) - al) + x * x - 1) / (
                Q * Q * (Q * Q * x * x - 1)
            )
            assert rel(qp.pearson_ratio(ULTRA.V, CTX, x), want) < 1e-14

    def test_pole(self):
        V = qp.CharVector(1.0, -0.25, 0.3, 0.1)  # a q^2 x^2 = -b at x = 1
        with pytest.raises(qp.ZeroDenominatorError):
            qp.pearson_ratio(V, CTX, 1.0)


class TestWeightGeneral:
    def test_pearson_consistency(self):
        for fam in (ULTRA, HERM, HERM0, qp.make_chebyshev5(CTX)):
            for j in range(1, 21):
                x = fam.support * Q**j
                lhs = qp.weight_general(fam.V, CTX, Q * x) / qp.weight_general(fam.V, CTX, x)
                assert rel(lhs, qp.pearson_ratio(fam.V, CTX, x)) < 1e-11

    def test_evenness_exact(self):
        for x in (0.2, 0.7, 0.99):
            assert qp.weight_general(ULTRA.V, CTX, x) == qp.weight_general(
                ULTRA.V, CTX, -x
            )

    def test_rejects_x_zero(self):
        with pytest.raises(ValueError):
            qp.weight_general(ULTRA.V, CTX, 0.0)

    def test_invalid_power_base(self):
        V = qp.CharVector(1.0, 1.0, 0.0, 3.0)  # 1 + d(q-1)/b = -0.5
        with pytest.raises(qp.InvalidBaseError):
            qp.weight_general(V, CTX, 0.5)

    def test_hermite_collapse_is_exact(self):
        # a computed as (1+q)(1-q) makes a + c(q-1) cancel exactly, so the
        # denominator product of the general solution is exactly 1
        for q in (0.3, 0.5, 0.77, 0.9):
            fam = qp.make_hermite(0.25, qp.QContext(q))
            assert fam.V.a + fam.V.c * (q - 1) == 0.0


class TestWeightStar:
    def test_hermite_general_display(self):
        # W2* = (p(1-q^2)+1)^(log x^2 / (2 log q)) (q^2 (1-q^2) x^2; q^2)_inf
        p = 0.3
        for x in (0.3, 0.8, 1.1):
            P = p * (1 - Q * Q) + 1
            power = math.exp(math.log(P) * math.log(x * x) / (2 * math.log(Q)))
            want = power * oracle_qpoch_inf(Q * Q * (1 - Q * Q) * x * x, Q * Q)
            assert rel(qp.weight_star(HERM.V, CTX, x), want) < 1e-12

    def test_ultraspherical_display(self):
        # W1* = (B^2)^(log x^2/(2 log q)) (q^2 x^2;q^2)_inf / (-A^2 x^2/B^2;q^2)_inf
        al, be = 0.4, 0.7
        Asq = (Q - Q**3) * (al + be + 1) - 1
        Bsq = al * (Q**3 - Q) + 1
        for x in (0.3, 0.8, 0.99):
            power = math.exp(math.log(Bsq) * math.log(x * x) / (2 * math.log(Q)))
            want = (
                power
                * oracle_qpoch_inf(Q * Q * x * x, Q * Q)
                / oracle_qpoch_inf(-Asq * x * x / Bsq, Q * Q)
            )
            assert rel(qp.weight_star(ULTRA.V, CTX, x), want) < 1e-12

    def test_chebyshev_displays(self):
        # weight arguments (q^4-q+1)/(q^3-q+1) and (q^6-q+1)/(q^3-q+1)
        for fam, topnum in ((qp.make_chebyshev5(CTX), Q**4 - Q + 1),
                            (qp.make_chebyshev6(CTX), Q**6 - Q + 1)):
            Bsq = Q**3 - Q + 1
            for x in (0.4, 0.9):
                power = math.exp(math.log(Bsq) * math.log(x * x) / (2 * math.log(Q)))
                want = (
                    power
                    * oracle_qpoch_inf(Q * Q * x * x, Q * Q)
                    / oracle_qpoch_inf(topnum / Bsq * x * x, Q * Q)
                )
                assert rel(qp.weight_star(fam.V, CTX, x), want) < 1e-12

    def test_continuous_extension_at_zero(self):
        assert qp.weight_star(HERM0.V, CTX, 0.0) == 1.0
        assert qp.weight_star(HERM.V, CTX, 0.0) == float("inf")
        assert qp.weight_star(ULTRA.V, CTX, 0.0) == 0.0

    @pytest.mark.parametrize("zero", [0.0, -0.0, 0])
    def test_extension_at_zero_follows_type_of_x(self, zero):
        # power base 1, above 1 and below 1: W*(0) = 1, +inf and 0
        cases = [(HERM0, "1"), (HERM, "inf"), (ULTRA, "0")]
        for fam, want in cases:
            w = qp.weight_star(fam.V, CTX, zero)
            assert type(w) is float and repr(w) == repr(float(want))
        with mpmath.workdps(30):
            ctx = qp.QContext(mpmath.mpf(Q))
            for fam, want in cases:
                w = qp.weight_star(fam.V, ctx, mpmath.mpf(zero))
                assert isinstance(w, mpmath.mpf) and w == mpmath.mpf(want)

    def test_positive_even_grid(self):
        for fam in (ULTRA, HERM, HERM0, qp.make_chebyshev5(CTX), qp.make_chebyshev6(CTX)):
            report = qp.weight_grid_report(fam.V, fam.support, CTX, n_terms=256)
            assert report.positive
            assert report.min_value > 0

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.05, 0.95),
        st.one_of(
            st.tuples(st.just("ultraspherical"), st.floats(-0.45, 2), st.floats(-0.9, 2)),
            st.tuples(st.just("hermite"), st.floats(-0.9, 0.99)),
        ),
        st.integers(0, 60),
    )
    def test_even_bit_for_bit(self, q, draw, j):
        # the grid report evaluates only +alpha q^j and relies on this
        ctx = qp.QContext(q)
        if draw[0] == "ultraspherical":
            fam = qp.make_ultraspherical(draw[1], draw[2], ctx)
        else:
            fam = qp.make_hermite(draw[1], ctx)
        x = fam.support * q**j
        w = qp.weight_star(fam.V, ctx, x)
        assert qp.weight_star(fam.V, ctx, -x) == w
        assert w > 0


GRID_FAMILIES = {
    "ultraspherical(0.4,0.7)": lambda ctx: qp.make_ultraspherical(0.4, 0.7, ctx),
    "hermite(0.3)": lambda ctx: qp.make_hermite(0.3, ctx),
    "hermite(-0.4)": lambda ctx: qp.make_hermite(-0.4, ctx),
    "chebyshev6": qp.make_chebyshev6,
}


@functools.cache
def float_grid_errors(q):
    """Per family, the worst relative errors of the float grid and of
    pointwise float weight_star against weight_star at 30 digits, taken
    at the same float inputs, over j = 0 .. 128 (every 8th j at q = 0.9)."""
    step = 8 if q == 0.9 else 1
    ctx = qp.QContext(q)
    errors = {}
    for name, make in GRID_FAMILIES.items():
        fam = make(ctx)
        grid = weights._weight_star_grid(fam.V, ctx, fam.support, 128)[::step]
        with mpmath.workdps(30):
            # the float V entries and grid points, promoted exactly
            V = qp.CharVector(*(mpmath.mpf(v) for v in (fam.V.a, fam.V.b, fam.V.c, fam.V.d)))
            ctx30 = qp.QContext(mpmath.mpf(q))
            refs = [qp.weight_star(V, ctx30, mpmath.mpf(x)) for x, _ in grid]
            errors[name] = (
                max(abs((w - r) / r) for (_, w), r in zip(grid, refs)),
                max(abs((qp.weight_star(fam.V, ctx, x) - r) / r)
                    for (x, _), r in zip(grid, refs)),
            )
    return errors


class TestWeightStarNearOne:
    """Each of W*'s two products leaves the float range near q = 1; their
    ratio, one product of quotients, does not."""

    def test_chebyshev6_endpoint(self):
        # both products underflow at x = 1; W*(1) at 30 digits
        ctx = qp.QContext(0.999)
        w = qp.weight_star(qp.make_chebyshev6(ctx).V, ctx, 1.0)
        assert rel(w, 0.03999863857618418) <= 1e-11

    @pytest.mark.parametrize("x", [0.5, 0.8])
    def test_float_against_40_digits(self, x):
        # measured 4.1e-13 and 1.0e-12 over heads of 28,000 and 32,000
        # factors, with the rounding of the float V
        ctx = qp.QContext(Q_NEAR_ONE, max_terms=NEAR_ONE_MAX_TERMS)
        w = qp.weight_star(qp.make_chebyshev6(ctx).V, ctx, x)
        assert rel(w, mp40_chebyshev6_near_one(x)) <= 5e-12


class TestWeightStarGrid:
    """The Pearson-stepped grid against weight_star."""

    @staticmethod
    def worst_deviation(fam, ctx, step=1):
        """The largest relative deviation over j = 0, step, .. 128."""
        grid = weights._weight_star_grid(fam.V, ctx, fam.support, 128)
        assert [x for x, _ in grid] == [fam.support * ctx.q**j for j in range(129)]
        worst = 0
        for x, w in grid[::step]:
            want = qp.weight_star(fam.V, ctx, x)
            worst = max(worst, abs(w - want) / abs(want))
        return worst

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("name", GRID_FAMILIES)
    def test_float(self, name, q):
        # the stepped grid is no less accurate than pointwise weight_star:
        # each family's grid error stays within the worst pointwise error
        # over GRID_FAMILIES at this q (1.6e-14 against 2.3e-14 at q = 0.3)
        errors = float_grid_errors(q)
        assert errors[name][0] <= max(pointwise for _, pointwise in errors.values())

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("name", GRID_FAMILIES)
    def test_mp40(self, name, q):
        with mpmath.workdps(40):
            ctx = qp.QContext(mpmath.mpf(q))
            fam = GRID_FAMILIES[name](ctx)
            [(_, w0), (_, w1)] = weights._weight_star_grid(fam.V, ctx, fam.support, 1)
            assert isinstance(w0, mpmath.mpf) and isinstance(w1, mpmath.mpf)
            # a pointwise 40-digit weight at q = 0.9 takes about 20 ms, so
            # the reference there reads every 8th point of the grid
            assert self.worst_deviation(fam, ctx, step=8 if q == 0.9 else 1) <= 1e-35

    @staticmethod
    def pearson_loop(V, ctx, alpha, n):
        """The grid as a loop of pearson_ratio calls, one per step."""
        q, x = ctx.q, alpha
        w = qp.weight_star(V, ctx, alpha)
        grid = [(x, w)]
        for j in range(1, n + 1):
            w = w * (q * q * qp.pearson_ratio(V, ctx, x))
            x = alpha * q**j
            grid.append((x, w))
        return grid

    @pytest.mark.parametrize("precision", [None, 30])
    @pytest.mark.parametrize("q", ["0.3", "0.5", "0.9"])
    def test_bits_of_the_pearson_ratio_loop(self, q, precision):
        # the x-free factors formed once leave every bit of the loop
        with mpmath.workdps(precision or 15):
            ctx = qp.QContext(mpmath.mpf(q) if precision else float(q))
            for make in GRID_FAMILIES.values():
                fam = make(ctx)
                for alpha, n in ((fam.support, 128), (fam.support / ctx.q**2, 1)):
                    grid = weights._weight_star_grid(fam.V, ctx, alpha, n)
                    assert repr(grid) == repr(self.pearson_loop(fam.V, ctx, alpha, n))
                # off the endpoint the second step's denominator
                # a q^2 (alpha q)^2 + b vanishes: both raise there
                for steps in (weights._weight_star_grid, self.pearson_loop):
                    with pytest.raises(qp.ZeroDenominatorError, match="Pearson ratio pole"):
                        steps(fam.V, ctx, fam.support / ctx.q**2, 2)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_vanishing_denominator(self, q):
        # (a + c(q-1)) / (b + d(q-1)) = -1 puts the factor 1 - 1 at alpha = 1
        ctx = qp.QContext(q)
        fam = qp.make_custom(-1.0, 1.0, -1.5, 1.5, ctx)
        with pytest.raises(qp.ZeroDenominatorError) as pointwise:
            qp.weight_star(fam.V, ctx, fam.support)
        with pytest.raises(qp.ZeroDenominatorError) as grid:
            weights._weight_star_grid(fam.V, ctx, fam.support, 128)
        assert str(grid.value) == str(pointwise.value)

    def test_truncation(self):
        ctx = qp.QContext(0.9, max_terms=20)
        fam = qp.make_hermite(0.3, ctx)
        with pytest.raises(qp.TruncationError) as pointwise:
            qp.weight_star(fam.V, ctx, fam.support)
        with pytest.raises(qp.TruncationError) as grid:
            weights._weight_star_grid(fam.V, ctx, fam.support, 128)
        assert str(grid.value) == str(pointwise.value)


def test_mp40_weight_star_against_qp_oracle():
    # eps_term follows the working precision: at 40 digits W* must hold
    # about 40 digits, not the 18 of a float truncation threshold
    with mpmath.workdps(40):
        ctx = qp.QContext(mpmath.mpf(Q))
        fam = qp.make_hermite(mpmath.mpf("0.3"), ctx)
        xs = [fam.support * ctx.q**j for j in range(129)]
        got = [qp.weight_star(fam.V, ctx, x) for x in xs]
    want = oracle_hermite_star_mp40("0.3", "0.5", xs)
    assert max(rel(g, w) for g, w in zip(got, want)) <= 1e-35


class TestBoundary:
    def test_ultraspherical_endpoint(self):
        rep = qp.boundary_vanishing_check(ULTRA.V, ULTRA.support, CTX)
        assert rep.ratio <= 1e-12

    def test_hermite_endpoint(self):
        rep = qp.boundary_vanishing_check(HERM.V, HERM.support, CTX)
        assert rep.ratio <= 1e-12

    def test_perturbed_support_fails(self):
        rep = qp.boundary_vanishing_check(ULTRA.V, 0.9, CTX)
        assert rep.ratio > 1e-3

    def test_one_weight_star_call(self, monkeypatch):
        # the endpoint and the interior grid share one weight_star call;
        # the grid steps by the Pearson ratio from there
        real = weights.weight_star
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(weights, "weight_star", counted)
        for fam in (ULTRA, HERM):
            calls.clear()
            qp.boundary_vanishing_check(fam.V, fam.support, CTX)
            assert calls == [(fam.V, CTX, fam.support)]

    def test_nan_interior_fails(self, monkeypatch):
        # max() keeps its running value against NaN, which used to drop a
        # NaN interior weight from the reduction and pass
        real = weights._weight_star_grid

        def with_nan(*args):
            grid = real(*args)
            grid[1] = (grid[1][0], float("nan"))
            return grid

        monkeypatch.setattr(weights, "_weight_star_grid", with_nan)
        rep = qp.boundary_vanishing_check(ULTRA.V, ULTRA.support, CTX)
        assert not rep.ratio <= 1e-12
        assert math.isnan(rep.interior_max) and math.isnan(rep.ratio)
