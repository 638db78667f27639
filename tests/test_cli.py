import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qsympoly as qp
from qsympoly import cli, sympoly
from qsympoly.classical import LIMIT_EPS


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_hermite_example(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "--family", "hermite", "-p", "0", "-q", "0.5", "-n", "2", "-x", "0.7"],
        )
        assert code == 0
        payload = json.loads(out)
        row = payload["rows"][0]
        assert row["value_recurrence"] == pytest.approx(0.49 - 2 / 3, rel=1e-14)
        assert row["value_explicit"] == pytest.approx(row["value_recurrence"], rel=1e-10)
        assert row["value_hypergeometric"] == pytest.approx(
            row["value_recurrence"], rel=1e-10
        )

    def test_degree_zero_custom(self, capsys):
        code, out, _ = run(
            capsys,
            ["eval", "--custom", "1.0,2.0,0.5,0.1", "-q", "0.4", "-n", "0",
             "-x", "0.1", "-x", "0.9", "-x", "-0.3"],
        )
        assert code == 0
        payload = json.loads(out)
        assert all(r["value_recurrence"] == 1 for r in payload["rows"])

    def test_malformed_q(self, capsys):
        code, _, err = run(
            capsys, ["eval", "--family", "hermite", "-q", "1.5", "-n", "2", "-x", "0.1"]
        )
        assert code == 2
        assert "q" in err

    def test_missing_x(self, capsys):
        code, _, err = run(capsys, ["eval", "--family", "hermite", "-n", "2"])
        assert code == 2

    def test_n_guard(self, capsys):
        code, _, err = run(
            capsys, ["eval", "--family", "hermite", "-n", "80", "-x", "0.1"]
        )
        assert code == 2

    def test_grid_outside_support(self, capsys):
        code, _, err = run(
            capsys,
            ["eval", "--family", "chebyshev5", "-n", "2", "--grid=-2:2:5"],
        )
        assert code == 2
        assert "support" in err

    def test_resonant_custom_is_precondition_failure(self, capsys):
        # a + c(q-1) = q resonates at n = 1
        code, _, err = run(
            capsys,
            ["eval", "--custom", "1,1,1,0", "-q", "0.5", "-n", "4", "-x", "0.1"],
        )
        assert code == 2
        assert "precondition" in err

    @pytest.mark.parametrize("family", [["--family", "hermite", "-p", "nan"],
                                        ["--custom", "inf,1,1,1"]])
    def test_non_finite_parameters_rejected(self, capsys, family):
        code, out, err = run(capsys, ["check", "ode"] + family)
        assert code == 2
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize("argv,message", [
        (["eval", "-n", "4", "-x", "nan"], "-x points must be finite"),
        (["eval", "-n", "4", "--grid=nan:1:3"], "--grid points must be finite"),
        (["export", "poly", "--grid=-1:nan:3"], "--grid points must be finite"),
        # no support bound to compare the point with
        (["eval", "--custom", "1,1,1,0.5", "-n", "4", "-x", "inf"], "-x points must be finite"),
        (["eval", "--family", "chebyshev6", "-q", "0.4", "-n", "56", "--grid=-1:1:201",
          "--tol", "nan"], "--tol must be finite and nonnegative, got nan"),
        (["check", "ode", "--tol", "nan"], "--tol must be finite and nonnegative, got nan"),
        (["check", "ode", "--tol", "-1"], "--tol must be finite and nonnegative, got -1.0"),
    ], ids=["eval-x", "eval-grid", "export-grid", "custom-x", "eval-tol", "check-tol-nan",
            "check-tol-negative"])
    def test_non_finite_input_rejected(self, capsys, argv, message):
        # NaN fails every comparison with a bound, so these exited 0 or 1
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_nan_2phi1_value_fails(self, capsys):
        # monic_factor underflows to 0 and the 2phi1 sum is inf - inf: a NaN
        # deviation must not read as agreement
        code, out, _ = run(
            capsys, ["eval", "--family", "chebyshev5", "-q", "0.05", "-n", "48", "-x", "0.5"]
        )
        payload = json.loads(out)
        assert code == 1
        assert payload["rows"][0]["value_hypergeometric"] is None
        assert payload["errors"] == [{"x": "0.5", "error": "2phi1 form disagrees with recurrence"}]

    def test_2phi1_parameter_overflow_is_precondition_failure(self, capsys):
        # q^(s - n) = 1e-5^-64 is beyond the float range
        code, out, err = run(
            capsys, ["eval", "--family", "chebyshev5", "-q", "0.00001", "-n", "64", "-x", "0.5"]
        )
        assert (code, out) == (2, "")
        assert "q^-64 overflows" in err
        assert "Traceback" not in err


class TestRepeatedCalls:
    def test_no_state_between_calls(self, capsys):
        # one parser serves every call in the process, and -x appends
        assert cli._build_parser() is cli._build_parser()
        argv = ["eval", "--family", "hermite", "-n", "2"]
        code, out, _ = run(capsys, argv + ["-x", "0.1"])
        assert code == 0
        assert [r["x"] for r in json.loads(out)["rows"]] == [0.1]
        code, out, err = run(capsys, argv + ["-x", "0.1", "--no-such-option"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --no-such-option" in err
        code, out, _ = run(capsys, argv + ["-x", "0.2"])
        assert code == 0
        assert [r["x"] for r in json.loads(out)["rows"]] == [0.2]


class TestTable:
    def test_hermite_table(self, capsys):
        code, out, _ = run(
            capsys,
            ["table", "--family", "hermite", "-p", "0", "-q", "0.5", "--n-max", "4"],
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert rows[0]["lambda"] == 0
        assert rows[1]["C"] == pytest.approx(2 / 3, rel=1e-14)
        assert rows[2]["C"] == pytest.approx(0.5, rel=1e-14)
        assert all(r["classification"] == "positive-definite" for r in rows)

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys,
            ["table", "--family", "hermite", "-q", "0.5", "--n-max", "3",
             "--format", "csv"],
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("n,lambda,delta,C,favard_norm")

    @pytest.mark.parametrize("argv,message", [
        (["-q", "1.5"], "base q must satisfy 0 < q < 1, got 1.5"),
        (["--n-terms", "0"], "n_terms must be at least 1"),
        (["--custom", "0,1,0,1"], "degenerate parameters: a and c must not both vanish"),
    ])
    def test_invalid_input_message(self, capsys, argv, message):
        code, out, err = run(capsys, ["table"] + argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_depth_below_float_range(self, capsys):
        # table runs no Jackson sum, so no depth is too deep for it
        code, out, err = run(capsys, ["table", "-q", "0.1", "--n-terms", "400"])
        assert (code, err) == (0, "")
        assert json.loads(out)["meta"]["n_terms"] == 400

    @staticmethod
    def count_C_reads(monkeypatch) -> tuple:
        # table reads C_n only through one cli._C_terms per table; the
        # classification scan forms its own in sympoly
        made, reads = [], []
        real = cli._C_terms

        def counted(V, ctx):
            made.append(ctx.q)
            terms = real(V, ctx)
            return lambda n: reads.append(n) or terms(n)

        monkeypatch.setattr(cli, "_C_terms", counted)
        return made, reads

    def test_favard_column_carried_across_rows(self, capsys, monkeypatch):
        # C_1 resonates, and delta_2 too: every later row reports the first
        # failing C_k of its product, as favard_norm(n) would raise it
        made, reads = self.count_C_reads(monkeypatch)
        n_max = 4
        code, out, _ = run(capsys, ["table", "--custom=-1,1,2,0.2", "-q", "0.5",
                                    "--n-max", str(n_max)])
        assert code == 0
        payload = json.loads(out)
        assert payload["errors"] == [
            {"n": 1, "error": "C_1 denominator vanishes"},
            {"n": 2, "error": "delta denominator vanishes at n=2"},
            {"n": 3, "error": "C_1 denominator vanishes"},
            {"n": 4, "error": "C_1 denominator vanishes"},
        ]
        assert [r["favard_norm"] for r in payload["rows"]] == [1, None, None, None, None]
        assert (len(made), reads) == (1, list(range(1, n_max + 1)))

    def test_row_zero_from_its_definitions(self, capsys, monkeypatch):
        # C_0 is no coefficient of the recurrence (phi_1 = x phi_0): row 0
        # prints 0 and the empty Favard product 1, not the closed form at
        # n = 0, which left rounding noise and, at c = a, a resonance
        made, reads = self.count_C_reads(monkeypatch)
        code, out, _ = run(capsys, ["table", "--custom=-1,1,-1,0.2", "-q", "0.5",
                                    "--n-max", "2"])
        assert code == 0
        payload = json.loads(out)
        assert [e["n"] for e in payload["errors"]] == [1, 2]
        assert (payload["rows"][0]["C"], payload["rows"][0]["favard_norm"]) == (0.0, 1)
        assert reads == [1, 2]
        code, out, _ = run(capsys, ["table", "--family", "hermite", "-p", "0.3", "-q", "0.3",
                                    "--format", "csv", "--n-max", "1"])
        assert code == 0
        assert out.splitlines()[1].split(",")[3:5] == ["0", "1"]

    def test_resonant_table_is_undefined(self, capsys):
        # the C_1 denominator vanishes exactly: the later C_n are positive,
        # but a recurrence that breaks at n = 1 is not positive-definite
        argv = ["table", "--custom=-1,1,-1,0.2", "-q", "0.5"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["errors"][0]["n"] == 1
        assert {r["classification"] for r in payload["rows"]} == {"undefined"}
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[-1] == "classification"
        assert {line.split(",")[-1] for line in lines[1:]} == {"undefined"}

    def test_favard_column_is_favard_norm(self, capsys, monkeypatch):
        # the product is carried, not recomputed, and shares each row's C_n:
        # n_max reads of one set of factors, where one favard_norm per row
        # makes 91
        made, reads = self.count_C_reads(monkeypatch)
        code, out, _ = run(capsys, ["table", "--family", "hermite", "-p", "0.3",
                                    "-q", "0.9", "--n-max", "12"])
        assert code == 0
        assert (len(made), reads) == (1, list(range(1, 13)))
        ctx = qp.QContext(0.9)
        V = qp.make_hermite(0.3, ctx).V
        assert [r["favard_norm"] for r in json.loads(out)["rows"]] == [
            qp.favard_norm(n, V, ctx) for n in range(13)
        ]

    def test_unevaluable_closed_form_is_a_row_error(self, capsys):
        # the default family sits on the removable singularity of the
        # tabulated norm: each row reports it and the table still exits 0
        code, out, err = run(capsys, ["table", "--n-max", "2"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [r["closed_form_norm"] for r in payload["rows"]] == [None] * 3
        assert payload["errors"] == [
            {"n": n, "error": "closed-form norm: prefactor denominator vanishes in a closed-form norm"}
            for n in range(3)
        ]


class TestCheck:
    def test_ortho_pass(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "ortho", "--family", "hermite", "-p", "0", "-q", "0.5",
             "--n-max", "10"],
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_ortho_at_large_n_max(self, capsys):
        # the product G_ii G_jj underflows from n_max = 34; each root does not
        argv = ["check", "ortho", "--family", "chebyshev6", "-q", "0.5", "--n-max"]
        code, out, err = run(capsys, argv + ["40"])
        assert (code, err) == (0, "") and "FAIL" not in out
        # G_46,46 is subnormal in float arithmetic
        code, out, err = run(capsys, argv + ["64"])
        assert (code, out) == (2, "")
        assert err == "precondition failure: the Gram entry G_46,46 leaves the float range\n"

    def test_ode_pass(self, capsys):
        code, out, _ = run(
            capsys, ["check", "ode", "--family", "chebyshev5", "-q", "0.5", "--n-max", "6"]
        )
        assert code == 0

    @pytest.mark.parametrize("tol,code,status", [([], 0, "PASS"), (["--tol", "1e-16"], 1, "FAIL")])
    def test_output_file_matches_verdict(self, capsys, tmp_path, tol, code, status):
        path = tmp_path / "ode.json"
        got, out, _ = run(capsys, ["check", "ode", "--family", "chebyshev5", "-q", "0.5",
                                   "--n-max", "6", "-o", str(path)] + tol)
        payload = json.loads(path.read_text())
        assert payload["meta"]["command"] == "check"
        assert payload["errors"] == []
        (row,) = payload["rows"]
        assert row["check"] == "ode residual (scaled)"
        assert row["passed"] is (status == "PASS")
        assert got == code
        assert out == (f"{status} {row['check']}: max residual {row['residual']:.3e} "
                       f"(tol {row['tolerance']:.1e})\n")

    def test_boundary_pass_with_default_q(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "boundary", "--family", "ultraspherical", "--alpha", "0.4",
             "--beta", "0.7"],
        )
        assert code == 0

    @pytest.mark.parametrize("tol,code,status,shown", [
        ([], 0, "PASS", "1.0e-12"), (["--tol", "0"], 1, "FAIL", "0.0e+00"),
    ], ids=["PASS", "FAIL"])
    def test_boundary_verdict(self, capsys, tol, code, status, shown):
        # the suite compares the measured ratio with its tolerance
        got, out, _ = run(capsys, ["check", "boundary", "--family", "hermite", "-p", "0.3",
                                   "-q", "0.5"] + tol)
        assert got == code
        assert out == (f"{status} boundary A(alpha) W(alpha) = 0: max residual 7.997e-28 "
                       f"(tol {shown})\n")

    @pytest.mark.parametrize("tol,code,status,shown,agree", [
        ([], 0, "PASS", "1.0e-08", "agree"), (["--tol", "0"], 1, "FAIL", "0.0e+00", "disagree"),
    ], ids=["PASS", "FAIL"])
    def test_norm_verdict(self, capsys, tmp_path, tol, code, status, shown, agree):
        # both lines compare their measured deviations with the tolerance;
        # the odd degrees' flagged closed forms are reported, never failed
        path = tmp_path / "norm.json"
        got, out, _ = run(capsys, ["check", "norm", "--family", "hermite", "-p", "0.3",
                                   "-q", "0.5", "-o", str(path)] + tol)
        assert got == code
        assert out.splitlines() == [
            f"{status} norm: favard vs quadrature: max residual 1.099e-15 (tol {shown})",
            f"{status} norm: closed form vs favard: max residual 1.015e-15 (tol {shown}) "
            "[closed-form discrepancy: closed form / Favard = -1 at n=1, -1 at n=3, "
            f"-1 at n=5, -1 at n=7; favard and quadrature {agree}, both values reported]",
        ]
        rows = json.loads(path.read_text())["rows"]
        assert [row["passed"] for row in rows] == [status == "PASS"] * 2

    def test_norm_flags_but_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "norm", "--family", "hermite", "-p", "0.3", "-q", "0.5",
             "--n-max", "6"],
        )
        assert code == 0
        assert "discrepancy" in out

    def test_norm_note_gives_closed_form_over_favard(self, capsys):
        code, out, _ = run(capsys, ["check", "norm", "--family", "hermite", "-q", "0.9"])
        assert code == 0
        line = out.splitlines()[1]
        assert line.startswith("PASS norm: closed form vs favard: max residual ")
        assert line.endswith(
            "[closed-form discrepancy: closed form / Favard = -1 at n=1, -1 at n=3, "
            "-1 at n=5, -1 at n=7; favard and quadrature agree, both values reported]")

    def test_norm_note_says_disagree(self, capsys):
        # the float Favard products and the 40-digit Gram agree to rounding,
        # which an unattainable tolerance turns into a disagreement
        code, out, _ = run(
            capsys, ["check", "norm", "--family", "hermite", "-p", "0.5", "-q", "0.9",
                     "--tol", "1e-30"])
        assert code == 1
        assert out.startswith("FAIL norm: favard vs quadrature")
        assert "favard and quadrature disagree, both values reported" in out

    def test_norm_note_names_unevaluable_closed_form(self, capsys):
        # the default family ultraspherical(0.4, 0.7) at q = 0.5 sits on the
        # removable singularity of the tabulated norm at every degree
        code, out, _ = run(capsys, ["check", "norm"])
        assert code == 0
        assert out.splitlines()[1].endswith(
            "[closed form not evaluable at n=[0, 1, 2, 3, 4, 5, 6, 7, 8]; "
            "favard and quadrature agree]")

    def test_pearson_forms_each_weight_once(self, capsys, monkeypatch):
        # q x_j and x_(j+1) are often the same float: 40 weights, fewer points
        calls = []
        real = cli.weight_general
        monkeypatch.setattr(cli, "weight_general",
                            lambda V, ctx, x: calls.append(x) or real(V, ctx, x))
        argv = ["check", "pearson", "--family", "hermite", "-p", "0.3", "-q", "0.9"]
        assert run(capsys, argv)[0] == 0
        xs = [qp.make_hermite(0.3, qp.QContext(0.9)).support * 0.9**j for j in range(1, 21)]
        points = {0.9 * x for x in xs} | set(xs)
        assert sorted(calls) == sorted(points) and len(calls) < 40

    def test_boundary_needs_support(self, capsys):
        code, out, err = run(capsys, ["check", "boundary", "--custom", "1,1,0.5,0"])
        assert (code, out) == (2, "")
        assert err == "error: family 'custom' has no known support endpoint\n"

    def test_limit_pass(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "limit", "--family", "chebyshev6", "-q", "0.5", "--n-max", "5"],
        )
        assert code == 0

    def test_pearson_pass(self, capsys):
        code, out, _ = run(
            capsys, ["check", "pearson", "--family", "hermite", "-p", "0.3"]
        )
        assert code == 0

    def test_failing_check_exits_one(self, capsys):
        # an unattainable tolerance turns rounding-level residuals into FAILs
        code, out, _ = run(
            capsys,
            ["check", "ode", "--family", "hermite", "-q", "0.5", "--n-max", "4",
             "--tol", "1e-30"],
        )
        assert code == 1
        assert "FAIL" in out

    def test_divergent_jackson_sum_fails(self, capsys):
        # q beta = 0.9 (1 + 2 (1 - 0.81)) = 1.242: the grid sum diverges, so
        # there is no Gram, and the four lines that read it FAIL with exit 1,
        # not an input error with exit 2
        code, out, err = run(
            capsys,
            ["check", "all", "--family", "hermite", "-p", "2", "-q", "0.9",
             "--n-terms", "700"],
        )
        assert (code, err) == (1, "")
        note = ("[the Jackson sum diverges: the weight ratio t_(j+1) / t_j tends to "
                "q beta = 1.242 >= 1]")
        lines = out.splitlines()
        assert lines[1:5] == [
            f"FAIL orthogonality off-diagonal (scaled): max residual inf (tol 1.0e-10) {note}",
            f"FAIL odd-parity entries exactly zero: max residual inf (tol 1.0e-10) {note}",
            f"FAIL norm: favard vs quadrature: max residual inf (tol 1.0e-08) {note}",
            f"FAIL norm: closed form vs favard: max residual inf (tol 1.0e-08) {note}",
        ]

    def test_nan_residual_fails(self, capsys, monkeypatch):
        nan = float("nan")
        # the suite reads the coefficient lists of phi_0 .. phi_n_max from
        # one _ladder_coeffs generator
        monkeypatch.setattr(sympoly, "_ladder_coeffs",
                            lambda n, V, ctx: ([nan] * (k + 1) for k in range(n + 1)))
        code, out, _ = run(
            capsys, ["check", "ode", "--family", "hermite", "-q", "0.5", "--n-max", "2"]
        )
        assert code == 1
        assert out.startswith("FAIL ode residual")

    @pytest.mark.parametrize("precision", [None, 30])
    def test_ode_suite_matches_pointwise(self, precision):
        # the suite reads every degree and point from one walk of the
        # ladder; its worst residual must equal, bit for bit, the one from
        # ode_residual_terms point by point (at 30 digits and n_max = 40
        # the pointwise loop takes seconds per case, so it runs at 10 only)
        import mpmath

        scope = mpmath.workdps(precision) if precision else contextlib.nullcontext()
        for name in cli.FAMILIES:
            for q in ("0.3", "0.5", "0.9"):
                for n_max in ("10",) if precision else ("10", "40"):
                    argv = ["check", "ode", "--family", name, "-q", q, "--n-max", n_max]
                    with scope:
                        args = cli._build_parser().parse_args(argv)
                        cli._build_config(args, precision)
                        [(_, worst, _, _, _)] = cli._check_lines_ode(args, 1e-10, None)
                        fam, ctx = args.fam, args.fam.ctx
                        support = fam.support + 0 * ctx.q
                        expected = 0.0
                        for n in range(args.n_max + 1):
                            for i in range(1, 11):
                                t1, t2, t3 = qp.ode_residual_terms(n, fam.V, ctx, support * i / 11)
                                scale = max(abs(t1), abs(t2), abs(t3), 1e-300)
                                expected = max(expected, abs(t1 + t2 + t3) / scale)
                    assert type(worst) is type(expected) is (mpmath.mpf if precision else float)
                    assert worst == expected > 0, argv

    def test_limit_with_vanishing_target(self, capsys):
        # the q -> 1 limit of C_1 is exactly 0 at p = 1/2, and the even
        # explicit polynomials have no finite limit there
        code, out, err = run(
            capsys,
            ["check", "limit", "--family", "hermite", "-p", "0.5", "-q", "0.3", "--n-max", "3"],
        )
        assert code == 1
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "PASS classical limit of C (raw error at eps=1e-4)",
            "PASS classical limit of lambda (raw error at eps=1e-4)",
            "FAIL classical limit of poly (raw error at eps=1e-4)",
        ]
        assert lines[2].endswith("[limit not evaluable at n=[2]]")
        assert err == ""

    def test_limit_builds_each_family_once(self, capsys, monkeypatch):
        calls = []
        make_family = cli._make_family

        def counted(*args):
            fam = make_family(*args)
            return qp.FamilyDescriptor(
                fam.name, fam.params, fam.V, fam.support, fam.ctx, fam.limit_V,
                lambda ctx: calls.append(ctx) or fam.rebuild(ctx),
                fam.closed_norm, fam.limit_weight, fam.violation)

        monkeypatch.setattr(cli, "_make_family", counted)
        code, _, _ = run(
            capsys, ["check", "limit", "--family", "ultraspherical", "-q", "0.5"])
        assert code == 0
        # one per eps, for 3 quantities x 10 degrees; the targets read the
        # family at the first eps
        assert len(calls) == len(set(calls)) == len(LIMIT_EPS)

    def test_limit_forms_each_sweep_context_once(self, capsys):
        # one report call per quantity, one C_n closure per sweep context,
        # and the explicit form's binomials from one (q^2; q^2)_i prefix:
        # no per-degree recurrence_C, eval_explicit or q_binomial call
        from qsympoly import classical, qcore, sympoly

        names = {f.__code__: f.__name__ for f in (
            sympoly._C_terms, qcore.q_binomial, sympoly.recurrence_C,
            sympoly.eval_explicit, classical.limit_convergence_report)}
        calls = dict.fromkeys(names.values(), 0)

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in names:
                calls[names[frame.f_code]] += 1

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            code = cli.main(["check", "limit"])
        finally:
            sys.setprofile(previous)
        capsys.readouterr()
        assert code == 0
        assert calls == {"_C_terms": 3, "q_binomial": 0, "recurrence_C": 0,
                         "eval_explicit": 0, "limit_convergence_report": 3}

    def test_check_all_assembles_one_gram(self, capsys, monkeypatch):
        from qsympoly import families

        calls = []
        real = families.orthogonality_matrix

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "orthogonality_matrix", counted)
        monkeypatch.setattr(families, "orthogonality_matrix", counted)
        code, _, _ = run(capsys, ["check", "all"])
        assert code == 0
        assert calls == [10]

    def test_norm_assembles_gram_at_n_max(self, capsys, monkeypatch):
        # the norm suite reads degrees up to 8 from the one Gram at --n-max
        calls = []
        real = cli.orthogonality_matrix
        monkeypatch.setattr(cli, "orthogonality_matrix",
                            lambda *args: calls.append(args[1]) or real(*args))
        code, _, _ = run(capsys, ["check", "norm"])
        assert code == 0
        assert calls == [10]

    def test_weight_below_float_range(self, capsys):
        # the power base 1 + p (1 - q^2) = 0.05 takes a float W* below the
        # smallest double from grid index 257 on; the Gram reads the
        # weight's moments, not its values
        code, out, err = run(
            capsys,
            ["check", "ortho", "--family", "hermite", "-p=-5", "-q", "0.9",
             "--n-terms", "700"],
        )
        assert (code, err) == (0, "")
        residual = float(out.splitlines()[0].split("max residual ")[1].split()[0])
        assert residual < 1e-30

    def test_weight_product_below_float_range(self, capsys):
        # W* itself lies below the float range: 4.2e-354 at 30 digits
        code, out, err = run(
            capsys, ["check", "pearson", "--family", "hermite", "-p", "0.3", "-q", "0.999"])
        assert (code, out) == (2, "")
        assert "leaves the float range" in err

    def test_boundary_near_one(self, capsys):
        # each of W*'s two products underflows at alpha = 1, but their
        # ratio W*(1) = 0.0400 is one product of quotients of order one
        code, out, err = run(capsys, ["check", "boundary", "--family", "ultraspherical",
                                      "-q", "0.999"])
        assert (code, err) == (0, "")
        assert out.startswith("PASS boundary")

    def test_check_all_near_one(self, capsys):
        # every suite now reaches its verdict; only the ode suite fails,
        # from float q-derivatives near q = 1, against its unchanged tol
        code, out, err = run(capsys, ["check", "all", "--family", "ultraspherical",
                                      "-q", "0.999"])
        assert (code, err) == (1, "")
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL ode residual")

    def test_ode_at_n_max_limit(self, capsys, monkeypatch):
        # a known defect, pinned so that its fix shows as a deliberate change:
        # at degree 64 the float ladder's rounding fails the unchanged tol,
        # and 40 digits pass
        argv = ["check", "ode", "--family", "hermite", "-p", "0.3", "-q", "0.9",
                "--n-max", str(cli.N_MAX_LIMIT)]
        monkeypatch.delenv("QSYMPOLY_PRECISION", raising=False)
        assert run(capsys, argv) == (
            1, "FAIL ode residual (scaled): max residual 4.696e-07 (tol 1.0e-10)\n", "")
        monkeypatch.setenv("QSYMPOLY_PRECISION", "40")
        assert run(capsys, argv) == (
            0, "PASS ode residual (scaled): max residual 5.411e-32 (tol 1.0e-10)\n", "")

    def test_pearson_weight_underflow_is_typed(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "weight_general", lambda V, ctx, x: 0.0)
        code, out, err = run(capsys, ["check", "pearson", "--family", "hermite"])
        assert (code, out) == (2, "")
        assert "underflows to 0" in err

    def test_pearson_near_one(self, capsys):
        # each product takes about 1,720 factors in its head, where the
        # whole product to 1e-17 took 9,775
        code, out, _ = run(
            capsys, ["check", "pearson", "--family", "hermite", "-p", "0.3", "-q", "0.998"])
        assert code == 0 and out.startswith("PASS pearson ratio")

    def test_depth_below_float_range(self, capsys):
        # q^700 = 1e-366 lies below the float range; --n-terms is only
        # echoed, and the Gram sums the whole grid
        code, out, err = run(
            capsys, ["check", "all", "--family", "chebyshev5", "-q", "0.3", "--n-terms", "700"])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 10 and all(line.startswith("PASS ") for line in lines)
        residual = float(lines[1].split("max residual ")[1].split()[0])
        assert residual < 1e-40

    def test_check_all_runs(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "all", "--family", "hermite", "-p", "0", "-q", "0.5",
             "--n-max", "8"],
        )
        assert code == 0
        for name in ("ode", "orthogonality", "norm", "pearson", "limit", "boundary"):
            assert name in out


class TestExport:
    def test_weight_csv_header_and_roundtrip(self, capsys, tmp_path):
        out_path = tmp_path / "w.csv"
        code, _, _ = run(
            capsys,
            ["export", "weight", "--family", "chebyshev5", "-q", "0.5",
             "--grid", "0.1:0.9:9", "--format", "csv", "-o", str(out_path)],
        )
        assert code == 0
        text = out_path.read_text()
        lines = text.splitlines()
        assert lines[0] == "x,weight_star,weight_limit"
        # round-trip: re-read values match fresh evaluation bitwise
        import qsympoly as qp

        ctx = qp.QContext(0.5)
        fam = qp.make_chebyshev5(ctx)
        rd = list(csv.DictReader(lines))
        for row in rd:
            x = float(row["x"])
            assert float(row["weight_star"]) == qp.weight_star(fam.V, ctx, x)
            assert float(row["weight_limit"]) == qp.continuous_weight(fam, x)

    def test_json_meta_and_nonfinite_to_errors(self, capsys, tmp_path):
        out_path = tmp_path / "w.json"
        code, _, _ = run(
            capsys,
            ["export", "weight", "--family", "hermite", "-p", "0.3", "-q", "0.5",
             "--grid=-0.5:0.5:5", "-o", str(out_path)],
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["meta"]["family"] == "hermite"
        assert payload["meta"]["q"] == "0.5"
        assert payload["meta"]["params"]["p"] == "0.3"
        # x = 0 row: W* and the limit weight diverge; reported, not emitted
        mid = payload["rows"][2]
        assert mid["x"] == 0.0
        assert mid["weight_star"] is None
        assert any(e["row"] == 2 for e in payload["errors"])
        for row in payload["rows"]:
            for v in row.values():
                if isinstance(v, float):
                    assert math.isfinite(v)

    def test_weight_near_one_has_no_row_errors(self, capsys):
        # at q = 0.999 both products of W* underflow near x = 1, but not
        # their ratio; the references are W* at 30 digits
        code, out, _ = run(capsys, ["export", "weight", "--family", "chebyshev6",
                                    "-q", "0.999", "--grid", "0.96:0.99:4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["errors"] == []
        want = {0.96: 0.2613266160574583, 0.98: 0.1955104468380339, 0.99: 0.1441240387212571}
        got = {round(r["x"], 2): r["weight_star"] for r in payload["rows"]}
        for x, w in want.items():
            assert abs(got[x] - w) <= 1e-11 * w

    def test_chebyshev5_limit_weight_endpoints(self, capsys, tmp_path):
        # the fifth-kind limit weight x^2 / sqrt(1 - x^2) is singular at the
        # endpoints of the default grid: null cells with an error entry each
        out_path = tmp_path / "w.json"
        code, _, _ = run(
            capsys,
            ["export", "weight", "--family", "chebyshev5", "-q", "0.5",
             "-o", str(out_path)],
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        rows = payload["rows"]
        assert len(rows) == 101
        nulls = [i for i, r in enumerate(rows) if r["weight_limit"] is None]
        assert nulls == [0, 100]
        errors = [e for e in payload["errors"] if e["column"] == "weight_limit"]
        assert [e["row"] for e in errors] == [0, 100]
        assert all("singular" in e["error"] for e in errors)

    def test_ultraspherical_limit_weight_origin(self, capsys, tmp_path):
        # x^(2 alpha) diverges at x = 0 for alpha < 0
        argv = ["export", "weight", "--family", "ultraspherical", "--alpha=-0.3",
                "--beta", "0.7", "--grid=-0.02:0.02:3"]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0
        rows = list(csv.DictReader(out.splitlines()))
        assert [r["weight_limit"] == "" for r in rows] == [False, True, False]
        code, out, _ = run(capsys, argv)
        assert code == 0
        errors = [e for e in json.loads(out)["errors"] if e["column"] == "weight_limit"]
        assert errors == [
            {"row": 1, "column": "weight_limit", "error": "weight singular at x = 0 for alpha < 0"}
        ]

    def test_poly_export(self, capsys, tmp_path):
        out_path = tmp_path / "p.json"
        code, _, _ = run(
            capsys,
            ["export", "poly", "--family", "hermite", "-p", "0", "-q", "0.5",
             "-n", "3", "--grid=-1:1:11", "-o", str(out_path)],
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["rows"]) == 11
        assert all(r["n"] == 3 for r in payload["rows"])

    def test_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["export", "weight", "--family", "chebyshev6", "-q", "0.5",
                "--grid", "0.1:0.9:17"]
        assert cli.main(argv + ["-o", str(p1)]) == 0
        assert cli.main(argv + ["-o", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()


NO_SUPPORT = "--custom=0,-1,1.5,0.45"


@pytest.mark.parametrize("argv,env,message", [
    (["table", "--custom=1,2,3"], {}, "--custom expects four comma-separated numbers a,b,c,d"),
    (["table", "--custom=1,2,x,4"], {},
     "could not parse --custom: could not convert string to float: 'x'"),
    (["eval", "-n", "2", "--grid=0:1"], {}, "malformed grid spec '0:1'; expected LO:HI:COUNT"),
    (["eval", "-n", "2", "--grid=0:1:1"], {}, "grid COUNT must be at least 2"),
    (["table"], {"QSYMPOLY_PRECISION": "0"}, "QSYMPOLY_PRECISION must be positive"),
    (["table", "-q", "abc"], {}, "could not parse q: could not convert string to float: 'abc'"),
    (["eval", "-n", "2", "-x", "abc"], {},
     "could not parse -x value: could not convert string to float: 'abc'"),
    (["check", "pearson", NO_SUPPORT], {},
     "pearson check needs a family with a support endpoint"),
    (["check", "ortho", NO_SUPPORT], {}, "orthogonality needs a family with a support endpoint"),
    (["export", "weight", NO_SUPPORT], {}, "weight export needs a family with a support endpoint"),
    # no degree to compare: the three limit lines used to PASS at 0.000e+00
    (["check", "limit", "--n-max", "0"], {}, "the limit suite needs --n-max >= 1"),
    # no same-parity pair: the off-diagonal line used to PASS at 0.000e+00;
    # `check all` meets the ortho suite before the limit suite
    (["check", "ortho", "--n-max", "1"], {}, "the ortho suite needs --n-max >= 2"),
    (["check", "all", "--n-max", "1"], {}, "the ortho suite needs --n-max >= 2"),
    (["check", "all", "--n-max", "0"], {}, "the ortho suite needs --n-max >= 2"),
], ids=["custom-count", "custom-parse", "grid-spec", "grid-count", "precision", "q-parse",
        "x-parse", "pearson-support", "ortho-support", "export-support", "limit-n-max-0",
        "ortho-n-max-1", "all-n-max-1", "all-n-max-0"])
def test_input_error_exits_two(capsys, monkeypatch, argv, env, message):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("n_max", ["1", "0"])
def test_n_max_checked_before_any_suite(capsys, monkeypatch, n_max):
    # `check all` runs the ode suite first; a later suite's usage error
    # must stop the command before the ode suite builds a polynomial, with
    # the first selected suite's message
    calls = []
    real = sympoly._ladder_coeffs
    monkeypatch.setattr(sympoly, "_ladder_coeffs", lambda *args: calls.append(args) or real(*args))
    code, out, err = run(capsys, ["check", "all", "--n-max", n_max])
    assert (code, out, err) == (2, "", "error: the ortho suite needs --n-max >= 2\n")
    assert calls == []
    # the patch is seen: the ode suite alone calls it once
    assert run(capsys, ["check", "ode", "--n-max", n_max])[0] == 0
    assert len(calls) == 1


def test_cli_import_leaves_modules_out():
    # numpy is no dependency; mpmath loads where a command first needs it;
    # dataclasses (with inspect) would cost the cold start of every command
    code = ("import sys, qsympoly.cli; "
            "print(sorted({'numpy', 'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))")
    # the child imports the same copy of the package as this test run
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert res.stdout.strip() == "[]"


def test_float_checks_leave_mpmath_out():
    # in float arithmetic the Gram is integer arithmetic on the inputs'
    # exact ratios, so no check imports mpmath; at 30 digits the Gram
    # entries are still mpf
    code = """if True:
        import contextlib, io, os, sys
        from qsympoly import cli
        def run(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(list(argv))
        for suite in ("all", "ortho", "norm"):
            for fam in (("--family", "hermite", "-p", "0.3"), ("--custom=-1,1,-1.5,0.2",)):
                assert run("check", suite, *fam, "-q", "0.9") in (0, 1)
        print("mpmath" in sys.modules)
        grams, real = [], cli.orthogonality_matrix
        cli.orthogonality_matrix = lambda *a: grams.append(real(*a)) or grams[-1]
        os.environ["QSYMPOLY_PRECISION"] = "30"
        assert run("check", "ortho", "--family", "hermite", "-p", "0.3", "-q", "0.9") == 0
        import mpmath
        [G] = grams
        print(len(G), {type(v).__name__ for row in G for v in row}, mpmath.mp.dps)
    """
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    env.pop("QSYMPOLY_PRECISION", None)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert res.stdout.splitlines() == ["False", "11 {'mpf'} 15"]


# a row value as a command hands it to _emit in float arithmetic
ROW_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2**200, 2**200),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1.7e308, math.nan, math.inf, -math.inf]),
    # quotes, backslashes, control characters and non-ASCII text
    st.text(alphabet=st.characters(codec="utf-8"), max_size=12)
    | st.sampled_from(['say "hi"', "a\\b", "tab\tnew\nline\x00\x1f", "é ∑ 𝔮"]),
)
KEYS = st.text(max_size=6)


class TestJSONOutput:
    """_emit writes JSON through json's C encoder, byte for byte what the
    indenting stdlib encoder writes."""

    @settings(max_examples=150, deadline=None)
    @given(
        columns=st.lists(KEYS, min_size=1, max_size=6, unique=True),
        rows=st.lists(st.dictionaries(KEYS, ROW_VALUES, max_size=6), max_size=5),
        errors=st.lists(st.dictionaries(KEYS, st.one_of(KEYS, st.integers()), max_size=3),
                        max_size=3),
        meta=st.dictionaries(KEYS, st.one_of(KEYS, st.integers(),
                                             st.dictionaries(KEYS, KEYS, max_size=2)),
                             max_size=4),
    )
    @example(columns=["x"], rows=[], errors=[], meta={})
    def test_emit_matches_the_stdlib_encoder(self, columns, rows, errors, meta):
        args = types.SimpleNamespace(fmt="json", precision=None, meta=meta)
        stream = io.StringIO()
        cli._emit(args, columns, rows, errors, stream)

        def clean(v):
            return None if isinstance(v, float) and not math.isfinite(v) else v

        payload = {"meta": meta, "errors": errors,
                   "rows": [{c: clean(r.get(c)) for c in columns} for r in rows]}
        assert stream.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("precision", [None, "30"])
    @pytest.mark.parametrize("argv", [
        ["table", "--family", "chebyshev6", "--n-max", "12"],
        ["eval", "--family", "hermite", "-p", "0.3", "-n", "7", "--grid=-0.9:0.9:5"],
        ["export", "poly", "--family", "ultraspherical", "-n", "6"],
        # W* diverges at x = 0: a null weight and an error entry
        ["export", "weight", "--family", "hermite", "-p", "0.3", "--grid=-0.5:0.5:5"],
        ["check", "all", "--family", "chebyshev5", "--n-max", "6"],
    ], ids=["table", "eval", "export-poly", "export-weight", "check"])
    def test_every_writer_is_canonical(self, capsys, monkeypatch, tmp_path, argv, precision):
        if precision is not None:
            monkeypatch.setenv("QSYMPOLY_PRECISION", precision)
        out_path = tmp_path / "out.json"
        code, _, err = run(capsys, argv + ["-q", "0.5", "-o", str(out_path)])
        assert (code, err) == (0, "")
        text = out_path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        payload = json.loads(text)
        assert payload["rows"]
        assert bool(payload["errors"]) == (argv[1] == "weight")


class TestPrecisionEnv:
    def test_elevated_precision_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("QSYMPOLY_PRECISION", "30")
        code, out, _ = run(
            capsys,
            ["eval", "--family", "hermite", "-p", "0", "-q", "0.5", "-n", "2",
             "-x", "0.7"],
        )
        assert code == 0
        payload = json.loads(out)
        v = payload["rows"][0]["value_recurrence"]
        # values are serialized as full-precision strings in this mode
        assert isinstance(v, str)
        assert abs(float(v) - (0.49 - 2 / 3)) < 1e-15

    def test_precision_scoped_to_call(self, capsys, monkeypatch):
        import mpmath

        monkeypatch.setenv("QSYMPOLY_PRECISION", "30")
        dps = mpmath.mp.dps
        code, _, _ = run(
            capsys, ["eval", "--family", "hermite", "-n", "2", "-x", "0.7"])
        assert code == 0
        assert mpmath.mp.dps == dps == 15

    def run_check(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("QSYMPOLY_PRECISION", "30")
        code, out, err = run(capsys, ["check"] + argv)
        lines = out.splitlines()
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)
        return code, lines, err

    def test_check_all(self, capsys, monkeypatch):
        # mpf residuals used to end the run in a format TypeError
        code, lines, err = self.run_check(
            capsys, monkeypatch, ["all", "--family", "hermite", "-p", "0.3"])
        assert len(lines) == 10
        assert err == ""
        assert code in (0, 1)

    def test_ode_points_at_working_precision(self, capsys, monkeypatch):
        code, lines, _ = self.run_check(
            capsys, monkeypatch, ["ode", "--family", "ultraspherical"])
        assert code == 0
        residual = float(lines[0].split("max residual ")[1].split()[0])
        assert residual < 1e-25

    @pytest.mark.parametrize("family", [
        ["--family", "ultraspherical", "--alpha", "0.4", "--beta", "0.7"],
        ["--family", "hermite", "-p", "0.3"],
    ])
    def test_boundary_and_limit(self, capsys, monkeypatch, family):
        # mpf weights through the suffix-product grid, and mpf family
        # parameters through the limit suite's per-call rebuild cache
        argv = family + ["-q", "0.5"]
        code, lines, err = self.run_check(capsys, monkeypatch, ["boundary"] + argv)
        assert (code, err) == (0, "")
        assert lines[0].startswith("PASS boundary")
        code, lines, err = self.run_check(capsys, monkeypatch, ["limit"] + argv)
        assert err == ""
        if family[1] == "ultraspherical":
            assert code == 0
        else:
            # the suite gates the raw error at eps = 1e-4, a first-order
            # error that the hermite C limit leaves above 1e-3 in float as
            # well; the mpf run must read as the float run does
            monkeypatch.delenv("QSYMPOLY_PRECISION")
            assert run(capsys, ["check", "limit"] + argv)[:2] == (code, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("q", ["0.00001", "1e-12"])
    def test_tiny_q_eval_at_40_digits(self, capsys, monkeypatch, q):
        # q^-64 is beyond the float range but not the mpf one: the 2phi1 sum
        # must not pass its parameters through float
        monkeypatch.setenv("QSYMPOLY_PRECISION", "40")
        code, out, err = run(
            capsys, ["eval", "--family", "chebyshev5", "-q", q, "-n", "64", "-x", "0.5"]
        )
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["errors"] == []
        row = payload["rows"][0]
        values = {row[k] for k in ("value_recurrence", "value_explicit", "value_hypergeometric")}
        assert len(values) == 1
        assert float(values.pop()) == pytest.approx(-1.6263032580777353e-19, rel=1e-9)

    def test_export_weight_at_working_precision(self, capsys, monkeypatch):
        # 40-digit weights, not 18-digit ones from a float truncation threshold
        import mpmath

        from conftest import oracle_hermite_star_mp40

        monkeypatch.setenv("QSYMPOLY_PRECISION", "40")
        code, out, _ = run(
            capsys, ["export", "weight", "--family", "hermite", "-p", "0.3", "-q", "0.5"])
        assert code == 0
        rows = [r for r in json.loads(out)["rows"] if r["weight_star"] is not None]
        assert len(rows) == 100  # W* diverges at x = 0 only
        with mpmath.workdps(60):
            xs = [mpmath.mpf(r["x"]) for r in rows]
            got = [mpmath.mpf(r["weight_star"]) for r in rows]
        want = oracle_hermite_star_mp40("0.3", "0.5", xs)
        assert max(abs(g - w) / abs(w) for g, w in zip(got, want)) <= 1e-35

    def test_rejects_non_finite_point(self, capsys, monkeypatch):
        # the point parses to an mpf NaN here, not a float
        monkeypatch.setenv("QSYMPOLY_PRECISION", "30")
        code, out, err = run(capsys, ["eval", "-n", "4", "--grid=nan:1:3"])
        assert (code, out) == (2, "")
        assert err == "error: --grid points must be finite\n"

    def test_rejects_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("QSYMPOLY_PRECISION", "many")
        code, _, err = run(capsys, ["eval", "--family", "hermite", "-n", "1", "-x", "0.1"])
        assert code == 2
