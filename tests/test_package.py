import datetime
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import varbreak
import varbreak.variance_poly

from conftest import growing_variance_levels, month_starts, write_fred_csv

SRC = Path(varbreak.__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in varbreak.__all__ if not hasattr(varbreak, name)]
    assert missing == []
    assert len(set(varbreak.__all__)) == len(varbreak.__all__)


@pytest.mark.parametrize("function, name", [("select_poly_order_aic", "OrderSelection")])
def test_unexported_return_types_resolve_in_variance_poly(function, name):
    assert name not in varbreak.__all__
    assert typing.get_type_hints(getattr(varbreak, function))["return"] is getattr(varbreak.variance_poly, name)


def test_positivity_check_answers_with_a_t_or_none():
    assert typing.get_type_hints(varbreak.check_positivity)["return"] == int | None


def _modules_after(code: str) -> set[str]:
    """The names in ``sys.modules`` after ``code`` runs in a fresh interpreter importing varbreak from SRC."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    script = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


class TestImportSets:
    """Each command imports only the modules it runs."""

    def test_package_import_loads_no_submodule_and_no_numpy(self):
        loaded = _modules_after("import varbreak")
        assert sorted(name for name in loaded if name.startswith("varbreak.")) == []
        assert "numpy" not in loaded

    def test_test_command_loads_neither_the_monte_carlo_engine_nor_a_pool(self, tmp_path):
        dates = month_starts(datetime.date(1959, 1, 1), 661, 1)
        csv_path = write_fred_csv(tmp_path / "SURROGATE_M.csv", "SURROGATE_M", dates, growing_variance_levels(661, 7))
        loaded = _modules_after(
            "from varbreak import cli\n"
            f"assert cli.main(['test', {str(csv_path)!r}, '--format', 'json', '--clamp']) == 0"
        )
        assert "varbreak.pipeline" in loaded
        assert {"varbreak.mc", "concurrent.futures", "multiprocessing"} & loaded == set()

    def test_critval_loads_neither_the_pipeline_nor_the_csv_reader(self):
        loaded = _modules_after("from varbreak import cli\nassert cli.main(['critval']) == 0")
        assert "varbreak.nulldist" in loaded
        assert {"varbreak.pipeline", "varbreak.dataio", "numpy"} & loaded == set()

    def test_serial_simulate_loads_no_pool(self, tmp_path):
        loaded = _modules_after(
            "from varbreak import cli\n"
            f"assert cli.main(['simulate', '--table', '1', '--reps', '20', '--out', {str(tmp_path / 't1.csv')!r}]) == 0"
        )
        assert "varbreak.mc" in loaded
        assert "concurrent.futures" not in loaded

    def test_every_public_name_and_submodule_resolves_lazily(self):
        submodules = sorted(info.name for info in pkgutil.iter_modules(varbreak.__path__))
        assert {"cli", "mc", "pipeline"} <= set(submodules)
        _modules_after(
            "import importlib, varbreak\n"
            "assert set(varbreak.__all__) <= set(dir(varbreak))\n"
            f"for name in {submodules!r}:\n"
            "    assert getattr(varbreak, name) is importlib.import_module('varbreak.' + name), name\n"
            "for name in varbreak.__all__:\n"
            "    value = getattr(varbreak, name)\n"
            "    assert getattr(importlib.import_module(value.__module__), name) is value, name\n"
            "star = {}\n"
            "exec('from varbreak import *', star)\n"
            "assert sorted(set(star) - {'__builtins__'}) == sorted(varbreak.__all__)\n"
            "assert not hasattr(varbreak, 'no_such_name')\n"
        )
