"""The public API: every name in ``mirrorphase.__all__`` is its home module's
object, loaded on first use."""

import importlib
import subprocess
import sys

import pytest

import mirrorphase


@pytest.mark.parametrize("name", mirrorphase.__all__)
def test_each_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"mirrorphase.{mirrorphase._HOME[name]}")
    assert getattr(mirrorphase, name) is getattr(home, name)


def test_dir_lists_every_public_name():
    assert set(mirrorphase.__all__) <= set(dir(mirrorphase))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from mirrorphase import *", namespace)
    assert all(namespace[name] is getattr(mirrorphase, name) for name in mirrorphase.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        mirrorphase.no_such_name


def test_import_version_and_dir_load_no_submodule():
    probe = ("import sys, mirrorphase; mirrorphase.__version__; dir(mirrorphase); "
             "print(sorted(m for m in sys.modules if m.startswith('mirrorphase.')))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
