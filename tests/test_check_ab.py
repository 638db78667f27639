"""tools/check_ab.py times two trees and exits 1 on any differing output.
This checks the verdict it prints, overall and per operation kind, that
it draws only command-line operations from the benchmark workloads, its
timing of one check suite (--suite) and of cold imports (--startup)."""

from pathlib import Path

import pytest
from conftest import load_tool

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


def test_operations_are_command_lines(tool, tmp_path):
    ops = tool.operations("evaluate", 1011, 12, str(tmp_path))
    assert len(ops) == 12
    assert all(op.argv for op in ops)
    assert {op.kind for op in ops} <= {"table", "export-poly", "export-weight"}


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
    for argv in ([SRC, SRC, "--startup", "0"], [SRC, SRC]):
        with pytest.raises(SystemExit) as exc:
            tool.main(argv)
        assert exc.value.code == 2


def test_startup_spawn_imports_an_uncached_copy(tool, tmp_path):
    # the spawn copies only the tree's sources, so it finds no bytecode
    # cache, and writes none
    seconds, output = tool.startup_spawn(SRC, str(tmp_path))
    assert seconds > 0 and output == ("", "")
    [copy] = tmp_path.iterdir()
    files = sorted(p.name for p in (copy / "qsympoly").iterdir())
    assert files == sorted(p.name for p in (Path(SRC) / "qsympoly").glob("*.py"))
