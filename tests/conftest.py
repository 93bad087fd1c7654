"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import hbs


@pytest.fixture
def child_env():
    """Environment for a child Python process that must import the same
    hbs package as the tests, also when it is not installed."""
    src = str(Path(hbs.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path}
