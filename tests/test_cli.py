import csv
import json
import math
import os
import subprocess
import sys

import pytest

from qsympoly import cli


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


class TestCheck:
    def test_ortho_pass(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "ortho", "--family", "hermite", "-p", "0", "-q", "0.5",
             "--n-max", "10"],
        )
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_ode_pass(self, capsys):
        code, out, _ = run(
            capsys, ["check", "ode", "--family", "chebyshev5", "-q", "0.5", "-n", "6"]
        )
        assert code == 0

    def test_boundary_pass_with_default_q(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "boundary", "--family", "ultraspherical", "--alpha", "0.4",
             "--beta", "0.7"],
        )
        assert code == 0

    def test_norm_flags_but_passes(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "norm", "--family", "hermite", "-p", "0.3", "-q", "0.5",
             "--n-max", "6"],
        )
        assert code == 0
        assert "discrepancy" in out

    def test_limit_pass(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", "limit", "--family", "chebyshev6", "-q", "0.5", "-n", "5"],
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
            ["check", "ode", "--family", "hermite", "-q", "0.5", "-n", "4",
             "--tol", "1e-30"],
        )
        assert code == 1
        assert "FAIL" in out

    def test_nan_residual_fails(self, capsys, monkeypatch):
        nan = float("nan")
        monkeypatch.setattr(cli, "ode_residual_terms", lambda *args: (nan, nan, nan))
        code, out, _ = run(
            capsys, ["check", "ode", "--family", "hermite", "-q", "0.5", "-n", "2"]
        )
        assert code == 1
        assert out.startswith("FAIL ode residual")

    def test_limit_with_vanishing_target(self, capsys):
        # the q -> 1 limit of C_1 is exactly 0 at p = 1/2, and the even
        # explicit polynomials have no finite limit there
        code, out, err = run(
            capsys,
            ["check", "limit", "--family", "hermite", "-p", "0.5", "-q", "0.3", "-n", "3"],
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
            assert float(row["weight_star"]) == fam.weight_spec().star(x)
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


def test_cli_import_does_not_load_numpy():
    code = "import sys, qsympoly.cli; print('numpy' in sys.modules)"
    # the child imports the same copy of the package as this test run
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120, env=env)
    assert res.stdout.strip() == "False"


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

    def test_rejects_garbage(self, capsys, monkeypatch):
        monkeypatch.setenv("QSYMPOLY_PRECISION", "many")
        code, _, err = run(capsys, ["eval", "--family", "hermite", "-n", "1", "-x", "0.1"])
        assert code == 2
