import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_src_size():
    spec = importlib.util.spec_from_file_location("src_size", TOOLS / "src_size.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

# a comment line
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        text = """a string that is
not a docstring"""
        "a later string expression"
        return text
'''


def test_src_size_counts_docstring_and_code_lines():
    # docstrings: lines 1-2, 9 and 12-13; code: 5, 8, 11, 14-15 (one token on two lines), 16 and 17
    assert load_src_size().count(SOURCE) == (17, 7, 5)


def test_src_size_totals_every_module(capsys):
    src = TOOLS.parent / "src" / "varbreak"
    assert load_src_size().main([str(src)]) == 0
    total = capsys.readouterr().out.splitlines()[-1].split()
    assert total[0] == "total"
    assert int(total[1].replace(",", "")) == sum(len(path.read_text(encoding="utf-8").splitlines()) for path in src.glob("*.py"))


@pytest.mark.parametrize("workload", ["grid", "large-n", "series"])
def test_ab_inprocess_runs_the_checkout_against_itself(workload):
    checkout = str(TOOLS.parent)
    run = subprocess.run(
        [sys.executable, str(TOOLS / "ab_inprocess.py"), checkout, checkout, "--workload", workload, "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["identical"] and result["rounds"] == 2 and result["a_src_sha256"] == result["b_src_sha256"]
    assert result["ratio_q1"] <= result["ratio_a_over_b_median"] <= result["ratio_q3"]
    assert 0 <= result["b_faster_rounds"] <= 2 and result["ops_per_round"] > 0


def test_ab_inprocess_sees_a_strict_run_error_text_that_differs(tmp_path):
    # one character of the dip error's text: the clamped timed runs never raise it, only the untimed strict runs do
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cusum = tmp_path / "src" / "varbreak" / "cusum.py"
    text = cusum.read_text(encoding="utf-8")
    assert text.count("fitted variance dips to") == 1
    cusum.write_text(text.replace("fitted variance dips to", "fitted variance dipz to"), encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(TOOLS / "ab_inprocess.py"), str(TOOLS.parent), str(tmp_path), "--workload", "series",
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 1, run.stderr
    assert json.loads(run.stdout.splitlines()[-1])["identical"] is False
