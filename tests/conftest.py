"""Let ``python -m surprisemax`` subprocesses find the package in ``src/``.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import path
only; the CLI tests start fresh interpreters, which read ``PYTHONPATH``.
The ``cold_sequence`` fixture starts a test from the solver's shared
sequence as a fresh process has it.
"""

import os

import numpy as np
import pytest

from surprisemax import solver

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, *_paths]))


@pytest.fixture
def cold_sequence(monkeypatch):
    fresh = (np.zeros(1), np.zeros(0))
    for arr in fresh:
        arr.setflags(write=False)
    monkeypatch.setattr(solver, "_shared", fresh)
