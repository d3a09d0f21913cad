"""The byte-identity corpus of the CLI: invocations and the hash of what each prints.

``tests/data/cli_corpus.json`` lists one entry per invocation: its argv,
what it reads on stdin, its exit code, and the sha256 of its exit code,
stdout and stderr (see ``digest``).  ``tests/test_corpus.py`` replays the
corpus in one process; a change that means to alter the output regenerates
the file and names the entries that moved.

    PYTHONPATH=src python tests/cli_corpus.py --write   # regenerate the manifest
    PYTHONPATH=src python tests/cli_corpus.py --check   # replay every entry, CI-only ones too

Eval inputs are made here from a seed by Python's ``random`` module, whose
``random()`` stream is fixed across versions, so no data file is kept for
them.  Entries marked ``ci_only`` take 0.1-0.5 s each, across the 2^16 kept
days or in ascents of 909 days and more, and are replayed by ``--check``
alone; entries marked ``python`` print text formatted by
``argparse``, whose layout may change between Python versions, and are
compared only under the version that wrote them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys

MANIFEST = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "cli_corpus.json")
PYTHON = "{}.{}".format(*sys.version_info[:2])


def simplex_text(size: int, seed: int, zeros: int, lines: bool) -> str:
    """A schedule of ``size`` entries, every ``zeros``-th of them 0, as eval input."""
    rng = random.Random(seed)
    draws = [0.0 if zeros and i % zeros == 0 else rng.random() for i in range(size)]
    total = sum(draws)
    values = [repr(x / total) for x in draws]
    return "\n".join(values) + "\n" if lines else "[" + ", ".join(values) + "]"


def stdin_text(stdin) -> str:
    if stdin is None:
        return ""
    if isinstance(stdin, str):
        return stdin
    return simplex_text(**stdin)


def run(argv, stdin=None) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``surprisemax.cli.main(argv)`` in this process."""
    from surprisemax import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, os.environ.get("COLUMNS")
    # argparse wraps help and usage text to the terminal width
    os.environ["COLUMNS"] = "80"
    sys.stdin = io.StringIO(stdin_text(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved[0]
        if saved[1] is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved[1]
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode("utf-8")).hexdigest()


def invocations():
    """``(argv, stdin, marks)`` of every entry, in manifest order."""
    days = [1, 2, 3, 9, 10, 99, 100, 4095, 4096, 4097, 20000]
    spans = ["1..3", "9..10", "99..100", "4095..4097"]
    for fmt in ("csv", "json"):
        for m in days:
            yield ["solve", "--days", str(m), "--format", fmt], None, {}
        for span in spans:
            yield ["table", "--days", span, "--format", fmt], None, {}
        # across the 2^16 kept days, and a day index of six digits
        yield ["table", "--days", "65535..65537", "--format", fmt], None, {"ci_only": True}
        yield ["solve", "--days", "100001", "--format", fmt], None, {"ci_only": True}
    yield ["solve", "--days", "7"], None, {}

    vectors = [
        {"size": 1, "seed": 0, "zeros": 0},
        {"size": 2, "seed": 1, "zeros": 2},
        {"size": 10, "seed": 2, "zeros": 3},
        {"size": 4097, "seed": 3, "zeros": 5},
    ]
    for vector in vectors:
        for lines in (False, True):
            for fmt in ("csv", "json"):
                yield ["eval", "--input", "-", "--format", fmt], dict(vector, lines=lines), {}
    yield ["eval", "--input", "-"], "[0.25, 0, 0.75]", {}

    for fmt in ("csv", "json"):
        yield ["simulate", "--days", "5", "--samples", "1000", "--seed", "3", "--format", fmt], None, {}
    yield ["verify", "--days", "1..4"], None, {}
    yield ["verify", "--days", "2..3", "--grid", "40"], None, {}
    # the ascent runs its nine starts as one block up to m = 910 and in row
    # blocks from m = 911 on; m = 2000..2003 is where verify-sweep spans end
    yield ["verify", "--days", "909..912"], None, {"ci_only": True}
    yield ["verify", "--days", "2000..2003", "--seed", "7"], None, {"ci_only": True}

    # exit 2: a tolerance no ascent meets
    yield ["verify", "--days", "3", "--tol", "1e-300"], None, {}
    # exit 1: usage errors of the CLI's own
    for argv in (
        ["solve", "--days", "0"],
        ["solve", "--days", "x"],
        ["solve", "--days", "2..3"],
        ["table", "--days", "5..2"],
        ["simulate", "--days", "3", "--samples", "0"],
        ["simulate", "--days", "3", "--samples", "1000000001"],
        ["verify", "--days", "2", "--tol", "-1"],
        ["verify", "--days", "2", "--tol", "inf"],
        ["verify", "--days", "5..6", "--grid", "1"],
        # integers in ASCII without "_", as eval reads numbers
        ["solve", "--days", "1_0"],
        ["solve", "--days", "\u0663"],
        ["table", "--days", "1..1_0"],
        ["table", "--days", "\u0663..5"],
    ):
        yield argv, None, {}
    # exit 3: input that does not parse or is not a schedule
    for text in ("", "[]", "{}", '[0.5, "a"]', "0.5\nabc\n", "[0.5, 0.6]", "[-0.5, 1.5]", "[1, 2"):
        yield ["eval", "--input", "-"], text, {}
    # text laid out by argparse: help and its own usage errors
    python = {"python": PYTHON}
    for argv in (
        ["--help"],
        ["solve", "--help"],
        ["solve"],
        ["solve", "--days", "3", "--format", "xml"],
        ["verify", "--days", "2", "--grid", "4_0"],
        ["verify", "--days", "2", "--seed", "\u0661"],
        ["verify", "--days", "2", "--tol", "1_0e-7"],
        ["verify", "--days", "2", "--tol", "\u0661e-6"],
        ["simulate", "--days", "3", "--samples", "1_000"],
        ["simulate", "--days", "3", "--seed", "1_0"],
    ):
        yield argv, None, python


def build() -> list[dict]:
    entries = []
    for argv, stdin, marks in invocations():
        code, out, err = run(argv, stdin)
        entries.append({"argv": argv, "stdin": stdin, **marks, "exit": code, "sha256": digest(code, out, err)})
    return entries


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--write", action="store_true", help="regenerate the manifest")
    action.add_argument("--check", action="store_true", help="replay the manifest")
    args = parser.parse_args()
    if args.write:
        os.makedirs(os.path.dirname(MANIFEST), exist_ok=True)
        with open(MANIFEST, "w", encoding="utf-8") as handle:
            # one entry to a line, so a regenerated manifest diffs by entry
            handle.write("[\n" + ",\n".join(map(json.dumps, build())) + "\n]\n")
        return 0
    with open(MANIFEST, encoding="utf-8") as handle:
        entries = json.load(handle)
    compared = [entry for entry in entries if entry.get("python", PYTHON) == PYTHON]
    moved = [
        entry["argv"]
        for entry in compared
        if digest(*run(entry["argv"], entry["stdin"])) != entry["sha256"]
    ]
    for argv in moved:
        print("moved:", " ".join(argv), file=sys.stderr)
    skipped = len(entries) - len(compared)
    print(
        f"{len(compared) - len(moved)} of {len(compared)} compared entries equal; "
        f"{skipped} skipped, written under another Python",
        file=sys.stderr,
    )
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
