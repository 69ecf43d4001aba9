"""The package exports each module's ``__all__``, and nothing loads the CLI."""

import importlib
import subprocess
import sys

import pytest

import relshift

MODULES = ("relations", "algebras", "constructions", "checks", "terms", "harness")


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_exported(module):
    mod = importlib.import_module(f"relshift.{module}")
    missing = [name for name in mod.__all__ if getattr(relshift, name, None) is not getattr(mod, name)]
    assert missing == []


def test_import_does_not_load_cli():
    code = "import sys, relshift; sys.exit('relshift.cli' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
