"""Let ``python -m surprisemax`` subprocesses find the package in ``src/``.

``pythonpath`` in pyproject.toml puts ``src`` on this process's import path
only; the CLI tests start fresh interpreters, which read ``PYTHONPATH``.
"""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if _SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, *_paths]))
