"""The package namespace: each library module's __all__, re-exported."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import confsemi

MODULES = ("calculus", "clock", "config", "drift_diffusion", "dynamics",
           "reports", "semigroup", "spaces", "suites", "transport")


def test_package_all_joins_the_module_lists():
    names = [name for mod in MODULES
             for name in importlib.import_module(f"confsemi.{mod}").__all__]
    assert len(names) == len(set(names))
    assert sorted(confsemi.__all__) == sorted(names)


def test_each_exported_name_is_its_modules_own():
    for mod in MODULES:
        module = importlib.import_module(f"confsemi.{mod}")
        for name in module.__all__:
            value = getattr(module, name)
            assert getattr(confsemi, name) is value
            assert getattr(value, "__module__", module.__name__) == module.__name__


def test_importing_the_package_leaves_the_command_line_unloaded():
    code = "import sys, confsemi; print('confsemi.cli' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(confsemi.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
    assert "main" not in confsemi.__all__
