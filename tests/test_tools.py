import importlib.util
from pathlib import Path

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
