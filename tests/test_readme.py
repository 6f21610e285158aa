"""The README's Quickstart runs, the paths it names exist, and its synopsis names every option."""

import re
from pathlib import Path

import pytest

from varbreak.cli import _build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")

#: A repo-relative path in running text: directories ending in "/", then
#: optionally a source or document file name.
_PATH = re.compile(r"(?<![\w/.-])((?:[\w.-]+/)+(?:[\w.-]+\.(?:py|md|json|toml))?)(?![\w/])")


def _first_block(section: str, language: str) -> str:
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", body, re.S).group(1)


def _synopses() -> dict[str, str]:
    """The synopsis lines of each subcommand, keyed by its name."""
    synopses: dict[str, str] = {}
    for line in _first_block("Command line", "text").splitlines():
        if line.startswith("varbreak "):
            name = line.split()[1]
        synopses[name] = synopses.get(name, "") + line + "\n"
    return synopses


def _subparsers():
    (action,) = [a for a in _build_parser()._actions if a.choices and hasattr(a, "add_parser")]
    return action.choices


def _named_paths() -> set[str]:
    """Every path the README names: in its text, and in the package layout tree."""
    paths = set(_PATH.findall(README))
    directory = ""
    for line in _first_block("Package layout", "text").splitlines():
        name = line.split()[0]
        if line.startswith(" "):
            paths.add(directory + name)
        else:
            directory = name
            paths.add(name)
    return paths


def test_named_paths_exist():
    paths = _named_paths()
    assert "tests/oracles.py" in paths and "src/varbreak/cusum.py" in paths
    missing = sorted(path for path in paths if not (ROOT / path).exists())
    assert not missing, f"README names paths that do not exist: {missing}"


def test_quickstart_runs(capsys):
    exec(compile(_first_block("Quickstart", "python"), "README.md#quickstart", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_synopsis_lists_every_subcommand():
    assert sorted(_synopses()) == sorted(_subparsers())


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_synopsis_names_every_long_option(command):
    synopsis = _synopses()[command]
    missing = []
    for action in _subparsers()[command]._actions:
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                match = re.search(rf"{option}(?![\w-])( \S+)?", synopsis)
                if match is None:
                    missing.append(option)
                elif action.choices:
                    shown = match.group(1).strip(" []").split("|")
                    missing.extend(f"{option} {c}" for c in action.choices if str(c) not in shown)
    assert not missing, f"README synopsis of {command!r} omits {missing}"
