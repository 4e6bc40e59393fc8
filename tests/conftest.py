"""Shared fixtures."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """Environment for a child interpreter that imports jmoduli from src/,
    so subprocess tests work without an installed package."""
    path = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
