"""tools/gram_accuracy.py passes when no case got worse, so a case list
that lost cases would still pass.  This pins the list, and checks the
measures, the verdict the tool prints and which file computes each
tree's matrices."""

import json
import os
import subprocess

import mpmath
import pytest
from conftest import load_tool


@pytest.fixture(scope="module")
def tool():
    return load_tool("gram_accuracy")


def test_cases(tool):
    assert tool.CASES == (
        ("ultraspherical", (0.4, 0.7), 0.9),
        ("ultraspherical", (-0.3, 1.2), 0.9),
        ("hermite", (0.3,), 0.9),
        ("hermite", (-5.0,), 0.9),
        ("custom", (-1.0, 1.0, -1.5, 0.2), 0.9),
        ("hermite", (-5.25,), 0.9),
        ("chebyshev5", (), 0.3),
        ("chebyshev6", (), 0.5),
        ("hermite", (-5.0,), 0.99),
        ("hermite", (0.5,), 0.3),
        ("hermite", (0.0,), 0.3),
        ("custom", (-1.0, 1.0, -6.0, 0.2), 0.5),
        ("ultraspherical", (0.4, 0.7), 0.999),
        ("hermite", (0.5,), 0.9),
        ("ultraspherical", (0.4, 1.9), 0.99),
    )
    assert (tool.N_MAX, tool.DPS, tool.REF_DPS) == (10, 40, 90)


def test_cases_converge(tool):
    # the Gram sums the whole grid, which converges only for q beta < 1
    import qsympoly as qp
    from qsympoly.families import FAMILIES

    for name, params, q in tool.CASES:
        make = qp.make_custom if name == "custom" else FAMILIES[name][0]
        V = make(*params, qp.QContext(q)).V
        assert q * (1 + V.d * (q - 1) / V.b) < 1


def test_measures(tool):
    f = mpmath.mpf
    R = [[f(4), f(0), f(1)], [f(0), f(1), f(0)], [f(1), f(0), f(9)]]
    G = [[f(4), f(0), f(2)], [f(0), f(1.5), f(0)], [f(2), f(0), f(9)]]
    # |1.5 - 1| / sqrt(1 * 1) beats |2 - 1| / sqrt(4 * 9)
    assert tool.deviation(G, R) == f(0.5)
    assert tool.deviation(R, R) == 0
    # the odd-parity zeros are not read
    assert tool.off_diagonal(G) == f(2) / 6


def test_verdict(tool):
    f = mpmath.mpf
    A = [[f(4), f(0)], [f(0), f(1)]]
    # equal entry for entry, not merely equally far from the reference
    assert tool.verdict(A, [[f(4), f(0)], [f(0), f(1)]], f(1), f(1)) == "identical"
    B = [[f(4), f(0)], [f(0), f(1) + f(2) ** -52]]
    assert tool.verdict(A, B, f(1), f(1)) == "ok"
    assert tool.verdict(A, B, f(1), f(2)) == "ok"
    assert tool.verdict(A, B, f(1), f(2.5)) == "WORSE"


def _reply(cases, n):
    """A --grams reply that echoes ``cases`` with n (empty) matrices."""
    return json.dumps({"cases": json.loads(json.dumps(cases)), "grams": [[]] * n})


@pytest.mark.parametrize("own_tool", [True, False])
def test_run_uses_the_tree_s_own_tool(tool, tmp_path, monkeypatch, own_tool):
    src = tmp_path / "src"
    src.mkdir()
    expected = tool.__file__
    if own_tool:
        (tmp_path / "tools").mkdir()
        expected = tmp_path / "tools" / "gram_accuracy.py"
        expected.write_text("")
    argvs = []

    def fake_run(argv, **kwargs):
        argvs.append(argv)
        # the case list goes to the tool on stdin
        assert json.loads(kwargs["input"]) == json.loads(json.dumps(tool.CASES))
        return subprocess.CompletedProcess(argv, 0, stdout=_reply(tool.CASES, len(tool.CASES)))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run(str(src), 40) == [[]] * len(tool.CASES)
    [(_, path, *rest)] = argvs
    assert os.path.samefile(path, expected)
    assert rest == ["--grams", "40"]


def test_run_replaces_a_tool_with_its_own_case_list(tool, tmp_path, monkeypatch):
    # a tool that predates the case list on stdin prints a bare list of its
    # own cases; this file then computes the tree's matrices
    (tmp_path / "tools").mkdir()
    own = tmp_path / "tools" / "gram_accuracy.py"
    own.write_text("")
    paths = []

    def fake_run(argv, **kwargs):
        paths.append(argv[1])
        if os.path.samefile(argv[1], own):
            return subprocess.CompletedProcess(argv, 0, stdout=json.dumps([[]] * 11))
        return subprocess.CompletedProcess(argv, 0, stdout=_reply(tool.CASES, len(tool.CASES)))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run(str(tmp_path / "src"), 40) == [[]] * len(tool.CASES)
    assert [os.path.samefile(p, own) for p in paths] == [True, False]
    assert os.path.samefile(paths[1], tool.__file__)


def test_run_replaces_a_tool_that_fails_on_the_case_list(tool, tmp_path, monkeypatch):
    # an older tool reads a depth from every case and fails on this list
    (tmp_path / "tools").mkdir()
    own = tmp_path / "tools" / "gram_accuracy.py"
    own.write_text("")
    paths = []

    def fake_run(argv, **kwargs):
        paths.append(argv[1])
        if os.path.samefile(argv[1], own):
            return subprocess.CompletedProcess(argv, 1, stdout="")
        return subprocess.CompletedProcess(argv, 0, stdout=_reply(tool.CASES, len(tool.CASES)))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    assert tool.run(str(tmp_path / "src"), 40) == [[]] * len(tool.CASES)
    assert [os.path.samefile(p, own) for p in paths] == [True, False]


def test_run_rejects_a_short_case_list(tool, tmp_path, monkeypatch):
    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=_reply(tool.CASES, 1))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match=f"1 Gram matrices for {len(tool.CASES)} cases"):
        tool.run(str(tmp_path), 40)


def test_run_rejects_a_foreign_case_list(tool, tmp_path, monkeypatch):
    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=_reply(tool.CASES[:1], 1))

    monkeypatch.setattr(tool.subprocess, "run", fake_run)
    with pytest.raises(SystemExit, match=f"did not return the Gram matrices of the {len(tool.CASES)} cases"):
        tool.run(str(tmp_path), 40)
