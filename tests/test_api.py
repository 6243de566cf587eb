"""The documented surface matches the code: ``__all__`` names, config keys, CSV row kinds."""

import configparser
import importlib
import pathlib
import pkgutil
import re
import textwrap

import pytest
from test_experiments import PINNED_CSV_CONFIGS, _pinned_report

import subortrim
from subortrim import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"

MODULES = sorted(info.name for info in pkgutil.iter_modules(subortrim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"subortrim.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing


def test_cli_docstring_names_every_config_key():
    # The INI example is the literal block after the docstring's "::".
    block = cli.__doc__.split("::\n", 1)[1].splitlines()[1:]
    end = next(i for i, line in enumerate(block) if line and not line.startswith("    "))
    example = configparser.ConfigParser(inline_comment_prefixes=(";",))
    example.read_string(textwrap.dedent("\n".join(block[:end])))
    documented = {(s, k) for s in example.sections() for k in example.options(s)}
    assert documented == set(cli._CONFIG_KEYS)


def test_readme_csv_schema_lists_every_row_kind():
    # The pinned configs write all nine row kinds between them.
    schema = README.read_text(encoding="utf-8").split("## CSV schema", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"^\| `([^`]+)` \|", schema, flags=re.MULTILINE))
    written = {row.edge for name in PINNED_CSV_CONFIGS for row in _pinned_report(name).rows}
    assert len(written) == 9
    assert written <= documented
