"""The package's lazy public API: each name resolves to its home module's object."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import entvol

SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_every_public_name_is_its_home_modules_object():
    assert len(entvol.__all__) == len(set(entvol.__all__)) == len(entvol._MODULE_OF)
    for name, module in entvol._MODULE_OF.items():
        home = importlib.import_module(f"entvol.{module}")
        assert getattr(entvol, name) is getattr(home, name), name
    # the source side is the same object under bipartite as under source
    from entvol import bipartite, source
    for name in ("MAX_EXACT_DIM", "MeasureReport", "_chamber_volume", "source_entanglement",
                 "source_entanglement_k", "source_entanglement_sup", "source_volume"):
        assert getattr(bipartite, name) is getattr(source, name), name


def test_dir_lists_every_public_name():
    assert set(entvol.__all__) <= set(dir(entvol))


def test_star_import_binds_every_name():
    scope: dict = {}
    exec("from entvol import *", scope)
    assert set(entvol.__all__) <= set(scope)
    assert scope["classify"] is entvol.fourqubit.classify


def test_unknown_attribute_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        entvol.no_such_name  # noqa: B018
    assert getattr(entvol, "no_such_name", None) is None


def test_names_are_bound_on_first_access():
    # in a fresh process: import entvol loads no submodule, and a name, once
    # read, sits in the module's namespace, so the hook is not asked again
    code = ("import sys\n"
            "import entvol\n"
            "print(sorted(m for m in sys.modules if m.startswith('entvol')))\n"
            "print('source_entanglement' in vars(entvol), 'numpy' in sys.modules)\n"
            "f = entvol.source_entanglement\n"
            "print('source_entanglement' in vars(entvol), 'numpy' in sys.modules)\n"
            "calls = []\n"
            "hook = entvol.__getattr__\n"
            "entvol.__getattr__ = lambda name: calls.append(name) or hook(name)\n"
            "assert entvol.source_entanglement is f\n"
            "print(calls)\n"
            "from entvol import fourqubit\n"
            "print(fourqubit.__name__, entvol.errors.__name__)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['entvol']",
        "False False",
        "True False",
        "[]",
        "entvol.fourqubit entvol.errors",
    ]
