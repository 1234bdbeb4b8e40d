"""scripts/ab_cpu.py: one source tree against itself runs, pairs and reports
bitwise-equal results; bad arguments are refused."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "ab_cpu.py")
SRC = os.path.join(ROOT, "src")


def _ab(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("case", ["p1", "pipeline"])
def test_self_against_self_is_bitwise_equal(case):
    proc = _ab(SRC, SRC, "--case", case, "--pairs", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair,first,old_cpu_ms,new_cpu_ms,cpu_ratio")
    assert [line.split(",")[:2] for line in lines[1:3]] == [["0", "old"], ["1", "new"]]
    assert f"case {case}: CPU ratio new/old median" in lines[3]
    assert "of 2 pairs" in lines[3]
    assert lines[-1] == "updates and Newton counts bitwise equal: yes"


@pytest.mark.parametrize("args", [["--case", "nope"], ["--case", "p0", "--pairs", "0"], []],
                         ids=["unknown-case", "no-pairs", "no-case"])
def test_refuses_bad_arguments(args):
    proc = _ab(SRC, SRC, *args)
    assert proc.returncode == 2 and "usage:" in proc.stderr


def test_refuses_a_tree_without_hbpc(tmp_path):
    proc = _ab(str(tmp_path), SRC, "--case", "p0", "--pairs", "1")
    assert proc.returncode == 1 and "no hbpc package under" in proc.stderr
