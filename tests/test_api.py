"""The documented surface matches the code: ``__all__`` names and config keys."""

import configparser
import importlib
import pkgutil
import textwrap

import pytest

import subortrim
from subortrim import cli

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
