"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured residual against its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two facts decide how criteria 7 and 8 are checked:

* criterion 7: a q-quantity approaches its classical limit at first
  order in eps = 1 - q, with a constant that grows with n.  At p = 0 the
  generalized q-Hermite recurrence coefficient C_n sits at relative
  distance |3n-4|/2 * eps + O(eps^2) from its limit, so at eps = 1e-4
  it exceeds 1e-3 from n = 9 on.  That is the true distance between two
  exact quantities, so no raw tolerance at a single eps can hold for
  every n.  The limit is verified as the classical module prescribes:
  the error sweep over q = 1 - eps is monotone, decays at first order,
  and the Richardson extrapolation to eps = 0 lands on the target.

* criterion 8 (weight clause): at p = 0 the family is discrete q-Hermite
  I in y = sqrt(1-q^2) x, whose weight (qy, -qy; q)_inf equals the
  product form (q^2 (1-q^2) x^2; q^2)_inf.  The reciprocal form
  1/(((1-q^2) x^2; q^2)_inf) does not satisfy the family's Pearson
  ratio; it differs from the weight by a factor that is not q-periodic,
  so no normalization reconciles the two.
"""

import math

import qsympoly as qp
from qsympoly.classical import LIMIT_EPS
from conftest import (
    family_builders,
    named_families,
    oracle_weight_discrete_q_hermite_1,
    random_char_vectors,
    rel,
    rel_scaled,
    rng,
)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPT-{num:02d} {name}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_01_three_form_agreement():
    tol = 1e-10
    worst = 0.0
    r = rng(101)
    for q in (0.3, 0.5, 0.9):
        ctx = qp.QContext(q)
        for name, fam in named_families(ctx).items():
            mfs = {n: qp.monic_factor(n, fam.V, ctx) for n in range(13)}
            for n in range(13):
                poly = qp.build_monic(n, fam.V, ctx)
                for _ in range(20):
                    x = r.uniform(-fam.support, fam.support)
                    floor = 1e-3 * poly.magnitude(x)
                    vr = poly(x)
                    ve = qp.eval_explicit_monic(n, fam.V, ctx, x)
                    vh = mfs[n] * qp.eval_hypergeometric(n, fam.V, ctx, x)
                    worst = max(
                        worst,
                        rel_scaled(vr, ve, floor),
                        rel_scaled(vr, vh, floor),
                        rel_scaled(ve, vh, floor),
                    )
    ok = worst <= tol
    report(1, "three-form agreement (recurrence / explicit / 2phi1)", ok,
           f"max rel dev {worst:.2e}, tol {tol:.0e}")
    assert ok


def test_criterion_02_ode_annihilation():
    tol = 1e-10
    ctx = qp.QContext(0.5)
    worst = 0.0
    r = rng(102)
    for name, fam in named_families(ctx).items():
        for n in range(11):
            for _ in range(20):
                x = r.uniform(-fam.support, fam.support)
                if x == 0:
                    continue
                t1, t2, t3 = qp.ode_residual_terms(n, fam.V, ctx, x)
                scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
                worst = max(worst, abs(t1 + t2 + t3) / scale)
    ok = worst <= tol
    report(2, "q-difference equation annihilation", ok,
           f"max scaled residual {worst:.2e}, tol {tol:.0e}")
    assert ok


def test_criterion_03_telescoping_and_parity_forms():
    tol = 1e-12
    worst_tel = 0.0
    worst_par = 0.0
    for q in (0.3, 0.5, 0.9):
        ctx = qp.QContext(q)
        vectors = [f.V for f in named_families(ctx).values()]
        vectors += random_char_vectors(5, ctx, seed=103)
        for V in vectors:
            for n in range(1, 21):
                c = qp.recurrence_C(n, V, ctx)
                dn = qp.delta(n, V, ctx)
                dn1 = qp.delta(n + 1, V, ctx)
                worst_tel = max(
                    worst_tel, rel_scaled(c, dn - dn1, max(abs(dn), abs(dn1)))
                )
                cp = (
                    qp.recurrence_C_even(n // 2, V, ctx)
                    if n % 2 == 0
                    else qp.recurrence_C_odd(n // 2, V, ctx)
                )
                worst_par = max(worst_par, rel(c, cp))
    ok = worst_tel <= tol and worst_par <= tol
    report(3, "telescoping C_n = delta_n - delta_{n+1} and parity forms", ok,
           f"telescoping {worst_tel:.2e}, parity {worst_par:.2e}, tol {tol:.0e}")
    assert ok


def test_criterion_04_orthogonality():
    ctx = qp.QContext(0.5)
    worst = 0.0
    parity_exact = True
    for name, fam in named_families(ctx).items():
        G = qp.orthogonality_matrix(fam, 10)
        for i in range(11):
            for j in range(i + 1, 11):
                if (i + j) % 2:
                    parity_exact = parity_exact and G[i][j] == 0.0
                else:
                    worst = max(worst, abs(G[i][j]) / math.sqrt(G[i][i] * G[j][j]))
    ok = worst <= 1e-10 and parity_exact
    report(4, "Gram-matrix orthogonality", ok,
           f"max off-diagonal {worst:.2e} (tol 1e-10), odd-parity exact: {parity_exact}")
    assert ok


def test_criterion_05_norm_triple_equality():
    tol = 1e-8
    all_ok = True
    flags = []
    worst_pair = 0.0
    cases = [(0.5, nm, mk) for nm, mk in family_builders().items()]
    cases.append((0.3, "ultraspherical(0.4,0.7)", lambda c: qp.make_ultraspherical(0.4, 0.7, c)))
    for q, name, mk in cases:
        ctx = qp.QContext(q)
        fam = mk(ctx)
        G = qp.orthogonality_matrix(fam, 8)
        triples = qp.norm_triple_report(fam, 8, G)
        for t in triples:
            # a flagged tabulated form is reported, not failed
            closed_ok = (t.discrepancy_flagged or t.closed_vs_favard is None
                         or t.closed_vs_favard <= tol)
            all_ok = all_ok and t.favard_vs_quadrature <= tol and closed_ok
            worst_pair = max(worst_pair, t.favard_vs_quadrature)
            if t.discrepancy_flagged:
                flags.append(f"{name} q={q} n={t.n}")
    detail = f"favard-vs-quadrature max {worst_pair:.2e} (tol {tol:.0e})"
    if flags:
        detail += f"; tabulated-form discrepancy flagged at {len(flags)} points (reported, not failed)"
    report(5, "norm triple equality (closed form / Favard / quadrature)", all_ok, detail)
    for f in flags:
        print(f"          flagged: {f}")
    assert all_ok


def test_criterion_06_pearson_verification():
    tol = 1e-11
    ctx = qp.QContext(0.5)
    q = 0.5
    worst = 0.0
    worst_display = 0.0
    for name, fam in named_families(ctx).items():
        for j in range(1, 21):
            x = fam.support * q**j
            lhs = qp.weight_general(fam.V, ctx, q * x) / qp.weight_general(fam.V, ctx, x)
            rhs = qp.pearson_ratio(fam.V, ctx, x)
            worst = max(worst, rel(lhs, rhs))
        # family-specific displayed ratios
        al, be = 0.4, 0.7
        for j in range(1, 21):
            x = fam.support * q**j
            rhs = qp.pearson_ratio(fam.V, ctx, x)
            if fam.name == "hermite":
                p = fam.params["p"]
                disp = (-p * q * q + p + 1) / (q * q + (q * q - 1) * q**4 * x * x)
                worst_display = max(worst_display, rel(rhs, disp))
            elif fam.name == "ultraspherical":
                disp = (q * (q * q - 1) * (x * x * (al + be + 1) - al) + x * x - 1) / (
                    q * q * (q * q * x * x - 1)
                )
                worst_display = max(worst_display, rel(rhs, disp))
    ok = worst <= tol and worst_display <= tol
    report(6, "Pearson ratio W(qx)/W(x)", ok,
           f"max dev {worst:.2e}, family displays {worst_display:.2e}, tol {tol:.0e}")
    assert ok


def test_criterion_07_classical_limits():
    extrap_tol = 1e-6
    min_decay = 7.0
    failures = []
    worst_raw = {"C": 0.0, "lambda": 0.0, "poly": 0.0}
    worst_extrap = 0.0
    min_seen_decay = math.inf
    for name, mk in family_builders().items():
        for qty in ("C", "lambda", "poly"):
            for n, rep in enumerate(qp.limit_convergence_report(
                qty, mk, range(1, 11), x=0.3 if qty == "poly" else None
            ), start=1):
                prev, last = rep.raw_errors[-2], rep.raw_errors[-1]
                worst_raw[qty] = max(worst_raw[qty], last)
                worst_extrap = max(worst_extrap, rep.extrapolated_error)
                # phi_1 = x at every q, so its errors are exactly 0 and
                # have no decay ratio; 0 >= 7 * 0 accepts that exact limit
                if last:
                    min_seen_decay = min(min_seen_decay, prev / last)
                # the decay is checked on the last eps decade, the
                # asymptotic one: from eps = 1e-2 to 1e-3 the O(eps^2)
                # term still counts at large n
                if not (
                    rep.monotone
                    and prev >= min_decay * last
                    and rep.extrapolated_error <= extrap_tol
                ):
                    failures.append(
                        f"{name} {qty} n={n}: raw {rep.raw_errors}, "
                        f"monotone {rep.monotone}, "
                        f"extrapolated {rep.extrapolated_error:.2e}"
                    )
    ok = not failures
    eps = ", ".join(f"{e:g}" for e in LIMIT_EPS)
    report(7, f"classical limits, q = 1 - eps swept over eps = {eps}", ok,
           f"worst extrapolated error {worst_extrap:.2e} (tol {extrap_tol:.0e}), "
           f"min last-decade decay {min_seen_decay:.1f}x (min {min_decay:g}x); "
           f"raw at eps={LIMIT_EPS[-1]:g}: C {worst_raw['C']:.2e}, "
           f"lambda {worst_raw['lambda']:.2e}, poly {worst_raw['poly']:.2e}")
    for f in failures:
        print(f"          not converging: {f}")
    assert ok, f"{len(failures)} limit checks do not converge: {failures}"


def test_criterion_07_companion_hermite_limit_rate():
    """What does hold: the hermite C_n limit error is first order in eps
    with an n-growing constant ((3n-4)/2 at p = 0, about 1.3e-3 at
    n = 10, eps = 1e-4), the sweep is monotone, and the order-2
    extrapolation lands orders of magnitude below the raw tolerance."""
    for p in (0.0, 0.3):
        mk = lambda ctx, p=p: qp.make_hermite(p, ctx)
        for rep in qp.limit_convergence_report("C", mk, range(1, 11)):
            assert rep.monotone
            # first-order decay: consecutive errors shrink by about the
            # 10x spacing of the eps grid
            ratio = rep.raw_errors[1] / rep.raw_errors[2]
            assert 7 <= ratio <= 13
            assert rep.raw_errors[-1] <= 1.5e-3
            assert rep.extrapolated_error <= 1e-6
    # at p = 0 the constant is (3n-4)/2 exactly (even and odd collapse to
    # the same expression q^(n-1)(1-q^n)/(1-q^2))
    mk0 = lambda ctx: qp.make_hermite(0.0, ctx)
    for n, rep in zip((4, 8, 10), qp.limit_convergence_report("C", mk0, (4, 8, 10))):
        eps = rep.eps_values[-1]
        predicted = (3 * n - 4) / 2 * eps
        assert abs(rep.raw_errors[-1] - predicted) <= 0.05 * predicted


def test_criterion_08_discrete_q_hermite_reduction():
    c_tol = 1e-13
    w_tol = 1e-12
    worst_c = 0.0
    worst_w = 0.0
    for q in (0.3, 0.5, 0.9):
        ctx = qp.QContext(q)
        repq = qp.hermite_p0_reduction_check(20, ctx)
        worst_c = max(worst_c, repq.max_recurrence_deviation)
        fam = qp.make_hermite(0.0, ctx)
        for j in range(1, 21):
            for x in (fam.support * q**j, -fam.support * q**j):
                # both weights are 1 at the origin, so they compare directly
                want = oracle_weight_discrete_q_hermite_1(math.sqrt(1 - q * q) * x, q)
                worst_w = max(worst_w, rel(qp.weight_star(fam.V, ctx, x), want))
    ok_c = worst_c <= c_tol
    ok_w = worst_w <= w_tol
    report(8, "discrete q-Hermite I reduction at p = 0", ok_c and ok_w,
           f"recurrence dev {worst_c:.2e} (tol {c_tol:.0e}); "
           f"weight vs (qy, -qy; q)_inf {worst_w:.2e} (tol {w_tol:.0e})")
    assert ok_c, "recurrence reduction failed"
    assert ok_w, f"weight deviates from the discrete q-Hermite I weight by {worst_w:.3e}"


def test_criterion_08_companion_weight_truth():
    """What does hold: W*(x; 0|q) equals the product form
    (q^2 (1-q^2) x^2; q^2)_inf to rounding and satisfies the family's
    Pearson ratio, W*(qx)/W*(x) = q^2 W(qx)/W(x).  The reciprocal form
    R(x) = 1/((u; q^2)_inf), u = (1-q^2) x^2, has instead
    R(qx)/R(x) = 1 - u = q^2 W(qx)/W(x) * (1-u)(1-q^2 u)."""
    for q in (0.3, 0.5, 0.9):
        ctx = qp.QContext(q)
        rep = qp.hermite_p0_reduction_check(20, ctx)
        assert rep.max_weight_product_deviation <= 1e-12
        fam = qp.make_hermite(0.0, ctx)

        def star(t):
            return qp.weight_star(fam.V, ctx, t)

        def recip(t):
            return 1 / qp.q_shifted_factorial_inf((1 - q * q) * t * t, ctx, base=q * q)

        for j in (1, 5, 9):
            x = fam.support * q**j
            rhs = qp.pearson_ratio(fam.V, ctx, x)
            lhs = qp.weight_general(fam.V, ctx, q * x) / qp.weight_general(fam.V, ctx, x)
            assert rel(lhs, rhs) < 1e-11
            assert rel(star(q * x) / star(x), q * q * rhs) < 1e-11
            u = (1 - q * q) * x * x
            factor = (1 - u) * (1 - q * q * u)
            # the factor stays clear of 1 by more than the tolerance
            # below, so the product form would fail the identity
            assert abs(1 - factor) > 1e-10
            assert rel(recip(q * x) / recip(x), q * q * rhs * factor) < 1e-11


def test_criterion_09_jackson_correctness():
    tol = 1e-13
    ctx = qp.QContext(0.5)
    cfg = qp.JacksonConfig(ctx)
    r = rng(109)
    worst = 0.0
    for deg in range(21):
        coeffs = [r.uniform(-1, 1) for _ in range(deg + 1)]

        def f(t, cs=coeffs):
            acc = 0.0
            for ck in reversed(cs):
                acc = acc * t + ck
            return acc

        a, b = 0.3, 0.9
        got = qp.q_integral(
            lambda t: qp.q_derivative(f, t, ctx), a, b, cfg
        ).value
        want = f(b) - f(a)
        worst = max(worst, rel(got, want, floor=1e-6))
    # odd integrands over symmetric intervals vanish exactly
    odd_exact = all(
        qp.q_integral_symmetric(lambda t, k=k: t**k, 1.0, cfg).value == 0.0
        for k in (1, 3, 5, 7, 9, 19)
    )
    ok = worst <= tol and odd_exact
    report(9, "Jackson integration: fundamental theorem and odd symmetry", ok,
           f"max rel dev {worst:.2e} (tol {tol:.0e}), odd integrals exact: {odd_exact}")
    assert ok


def test_criterion_10_boundary_condition():
    tol = 1e-12
    ctx = qp.QContext(0.5)
    worst = 0.0
    for name, fam in named_families(ctx).items():
        repf = qp.boundary_vanishing_check(fam.V, fam.support, ctx)
        worst = max(worst, repf.ratio)
        assert repf.ratio <= tol, f"{name}: boundary ratio {repf.ratio:.2e}"
    report(10, "boundary condition A(alpha) W(alpha) = 0", True,
           f"max ratio {worst:.2e}, tol {tol:.0e}")
