"""tools/check_ab.py times two trees and exits 1 on any differing output.
This checks the verdict it prints, overall and per operation kind, that
it draws the benchmark workloads' operations, library ones too, and runs
a library one on the given tree, its timing of one check suite (--suite)
and of cold starts (--startup, with or without --command)."""

import sys
from pathlib import Path

import pytest
from conftest import load_tool

import qsympoly
from qsympoly import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def tool():
    return load_tool("check_ab")


def test_verdict(tool):
    rows = [(0.010, 0.007, True), (0.020, 0.016, True), (0.030, 0.030, True)]
    lines, code = tool.verdict(rows)
    assert code == 0
    assert lines == [
        "operations 3",
        "parent 20.00 ms/op",
        "change 17.67 ms/op",
        # the median of 0.7, 0.8 and 1.0, not the ratio of the means
        "median ratio change/parent 0.800",
        "outputs: all equal",
    ]
    lines, code = tool.verdict(rows + [(0.010, 0.005, False)])
    assert code == 1
    assert lines[-1] == "outputs differ on 1 of 4 operations"


def test_verdict_by_kind(tool):
    rows = [(0.010, 0.007, True), (0.020, 0.016, True), (0.030, 0.030, True),
            (0.010, 0.005, True)]
    lines, code = tool.verdict(rows, ["table", "export-poly", "table", "export-poly"])
    assert code == 0
    # each kind's median follows the overall one, kinds in name order
    assert lines[3:] == [
        "median ratio change/parent 0.750",
        "  export-poly: median ratio 0.650 over 2 operations",
        "  table: median ratio 0.850 over 2 operations",
        "outputs: all equal",
    ]


def test_operations_include_the_library_ones(tool, tmp_path):
    ops = tool.operations("evaluate", 1011, 12, str(tmp_path))
    assert len(ops) == 12
    assert {op.kind for op in ops if op.argv} <= {"table", "export-poly", "export-weight"}
    assert {op.kind for op in ops if op.argv is None} == {"eval", "quadrature"}


@pytest.fixture
def probe(tool):
    """The cli of a second copy of this tree, the package tree_probe."""
    yield tool.load_cli(SRC, "tree_probe")
    for name in [m for m in sys.modules if m.partition(".")[0] == "tree_probe"]:
        del sys.modules[name]


def test_library_run_reads_the_trees_package(tool, probe, tmp_path, monkeypatch):
    ops = tool.operations("evaluate", 1011, 12, str(tmp_path))
    evals = next(op for op in ops if op.kind == "eval")
    quad = next(op for op in ops if op.kind == "quadrature")
    library = tool.bench_module("ops").LIBRARY
    for op in (evals, quad):
        seconds, output = tool.library_run(cli, op)
        assert seconds > 0 and output == repr(library[op.kind](op))
        assert tool.library_run(probe, op)[1] == output
    # a change to the probe's library shows in its output alone, and the
    # name qsympoly is bound back to this process's package
    monkeypatch.setattr(sys.modules[probe.__package__].sympoly, "eval_explicit_monic",
                        lambda n, V, ctx, x: 0.0)
    assert tool.library_run(probe, evals)[1] != tool.library_run(cli, evals)[1]
    assert sys.modules["qsympoly"] is qsympoly


def test_evaluate_compares_library_operations(tool, capsys):
    code = tool.main([SRC, SRC, "--workload", "evaluate", "--ops", "9"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "operations 9"
    kinds = [line.split(":")[0].strip() for line in out if line.startswith("  ")]
    assert {"eval", "quadrature"} <= set(kinds)
    assert out[-1] == "outputs: all equal"


def test_compare_flags_differing_outputs(tool):
    same = tool.compare([lambda: (0.002, "lines"), lambda: (0.001, "lines")])
    assert same == (0.002, 0.001, True)
    differ = tool.compare([lambda: (0.002, "lines"), lambda: (0.001, "other lines")])
    assert differ[2] is False


def test_suite_run(tool, tmp_path):
    [check] = tool.operations("check-sweep", 1011, 1, str(tmp_path))
    seconds, output = tool.suite_run(cli, check, "limit")()
    assert seconds > 0
    assert output.count("classical limit of") == 3
    # the suite's lines, not the command's stdout
    assert "PASS" not in output
    # an operation that does not run the suite is skipped
    [export] = tool.operations("evaluate", 1011, 1, str(tmp_path))
    assert tool.suite_run(cli, export, "limit") is None


def test_suite_option(tool, capsys):
    code = tool.main([SRC, SRC, "--workload", "check-sweep", "--ops", "2", "--suite", "limit"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "operations 2"
    assert out[4].startswith("  check: median ratio ")
    assert out[4].endswith(" over 2 operations")
    assert out[-1] == "outputs: all equal"
    with pytest.raises(SystemExit) as exc:
        tool.main([SRC, SRC, "--workload", "check-sweep", "--ops", "2", "--suite", "gram"])
    assert exc.value.code == 2


def test_startup_option(tool, capsys):
    code = tool.main([SRC, SRC, "--startup", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    # a cold start has no operation kind
    assert len(out) == 5
    assert out[0] == "operations 2"
    assert out[-1] == "outputs: all equal"
    for argv in ([SRC, SRC, "--startup", "0"], [SRC, SRC],
                 [SRC, SRC, "--command", "check all -q 0.9"]):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2


def test_startup_spawn_imports_an_uncached_copy(tool, tmp_path):
    # the spawn copies only the tree's sources, so it finds no bytecode
    # cache, and writes none
    seconds, output = tool.startup_spawn(SRC, str(tmp_path))
    assert seconds > 0 and output == (0, "", "")
    [copy] = tmp_path.iterdir()
    files = sorted(p.name for p in (copy / "qsympoly").iterdir())
    assert files == sorted(p.name for p in (Path(SRC) / "qsympoly").glob("*.py"))


def test_startup_spawn_runs_a_command(tool, tmp_path):
    # the whole command, its exit code and output, from an uncached copy
    seconds, (code, out, err) = tool.startup_spawn(
        SRC, str(tmp_path), "check ortho --family hermite -p 0.3 -q 0.9")
    assert seconds > 0 and (code, err) == (0, "")
    assert out.startswith("PASS") and "orthogonality" in out
    _, (code, out, err) = tool.startup_spawn(SRC, str(tmp_path), "check ortho -q 2")
    assert code == 2 and out == "" and "q" in err
    assert not list(tmp_path.glob("*/qsympoly/__pycache__"))
