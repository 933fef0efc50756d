"""Shared test set-up."""
import os
from pathlib import Path

import pytest

import veclisp

SRC = str(Path(veclisp.__file__).resolve().parents[1])


@pytest.fixture(autouse=True)
def _subprocesses_import_the_package_under_test(monkeypatch):
    """Tests that run ``python -m veclisp`` get the same sources as the tests."""
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
