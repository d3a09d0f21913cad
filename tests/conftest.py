"""Let ``python -m surprisemax`` subprocesses find the package in ``src/``.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import path
only; the CLI tests start fresh interpreters, which read ``PYTHONPATH``.
The ``cold_sequence`` fixture starts a test from the solver's shared
sequence as a fresh process has it, ``cold_text`` from that and the
CLI's kept text of it, and ``small_kept`` from a small kept state.
"""

import os

import numpy as np
import pytest

from surprisemax import cli, solver

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


@pytest.fixture
def cold_text(cold_sequence, monkeypatch):
    for store in (cli._GAMMA_TEXT, cli._HAZARD_TEXT):
        monkeypatch.setattr(store, "_fields", cli._SequenceText()._fields)


@pytest.fixture
def small_kept(cold_text, monkeypatch):
    """A fresh kept state of 128 days in runs of 8, 16 runs as at the full size.

    Returns the day counts of the full-size cases at this size: ``n = q *
    4096 + r`` (``-2048 <= r < 2048``) as ``q * 8 + r``, as many runs and
    the same days over.
    """
    monkeypatch.setattr(solver, "_RETAINED_DAYS", 128)
    monkeypatch.setattr(cli, "_CHUNK", 8)
    return lambda n: (n + 2048) // 4096 * 8 + (n + 2048) % 4096 - 2048
