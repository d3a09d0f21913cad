"""The CLI prints what the byte-identity corpus recorded, in any order of invocations.

Each order starts from the kept state of a fresh process and runs every
entry of ``tests/data/cli_corpus.json`` in one process, so entries read the
sequence and text that earlier ones grew.  See ``tests/cli_corpus.py``.
"""

import json
import random

import pytest

import cli_corpus

with open(cli_corpus.MANIFEST, encoding="utf-8") as _handle:
    ENTRIES = json.load(_handle)


def test_corpus_covers_every_exit_code():
    assert {entry["exit"] for entry in ENTRIES} == {0, 1, 2, 3}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_in_seeded_order(cold_text, seed):
    entries = [
        entry
        for entry in ENTRIES
        if not entry.get("ci_only") and entry.get("python", cli_corpus.PYTHON) == cli_corpus.PYTHON
    ]
    random.Random(seed).shuffle(entries)
    moved = [
        entry["argv"]
        for entry in entries
        if cli_corpus.digest(*cli_corpus.run(entry["argv"], entry["stdin"])) != entry["sha256"]
    ]
    assert moved == []
