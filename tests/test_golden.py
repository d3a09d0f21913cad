"""Byte-identity of the array-backed solver and renderers.

The references below restate the per-row algorithm: a scalar ``math.exp``
replay of the recursion and the rollout, rendered field by field with
``format_float``.  The CLI must print exactly the same bytes, and the
``PolicyTable`` arrays must carry exactly the same bits.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surprisemax import PolicyRow, objective_values, rollout, tail_masses
from surprisemax import cli
from surprisemax.cli import format_float, format_floats, main

EDGE_VALUES = [0.0, -0.0, 1.0, 2.0**53, 1e16, 1e22, 5e-324, 1.5]


def replay(m):
    """Gamma values and per-day rows ``(j, gamma_j, hazard, remaining, p_j)``."""
    g = [0.0] * (m + 1)
    for j in range(m, 0, -1):
        g[j - 1] = g[j] + math.exp(-g[j])
    rows = []
    remaining = 1.0
    for j in range(1, m + 1):
        hazard = math.exp(-g[j])
        allocation = remaining * hazard
        rows.append((j, g[j], hazard, remaining, allocation))
        remaining -= allocation
    return g, rows


def objective_json(obj):
    return (
        f'"objective": {{"sm1": {format_float(obj.sm1)}, '
        f'"sm2": {format_float(obj.sm2)}, '
        f'"expected_surprise": {format_float(obj.expected_surprise)}}}'
    )


def reference_solve(m, fmt):
    g, rows = replay(m)
    if fmt == "csv":
        lines = ["j,gamma,hazard,p,remaining_before"]
        for j, gamma, hazard, remaining, allocation in rows:
            lines.append(
                ",".join(
                    (
                        str(j),
                        format_float(gamma),
                        format_float(hazard),
                        format_float(allocation),
                        format_float(remaining),
                    )
                )
            )
        return "\n".join(lines) + "\n"
    gammas = ", ".join(format_float(g[j]) for j in range(1, m + 1))
    p = [row[4] for row in rows]
    ps = ", ".join(format_float(x) for x in p)
    return (
        f'{{"m": {m}, "gamma0": {format_float(g[0])}, "gamma": [{gammas}], '
        f'"p": [{ps}], {objective_json(objective_values(p))}, '
        f'"value_at_root": {format_float(1.0 - g[0])}}}\n'
    )


def reference_eval(values, fmt):
    v = np.array([float(x) for x in values])
    obj = objective_values(v)
    tails = tail_masses(v)
    if fmt == "csv":
        pairs = [
            ("m", str(v.size)),
            ("sm1", format_float(obj.sm1)),
            ("sm2", format_float(obj.sm2)),
            ("expected_surprise", format_float(obj.expected_surprise)),
        ]
        pairs += [(f"p_{j + 1}", format_float(v[j])) for j in range(v.size)]
        pairs += [(f"tail_{j + 1}", format_float(tails[j])) for j in range(v.size)]
        return "\n".join(["field,value"] + [f"{k},{x}" for k, x in pairs]) + "\n"
    ps = ", ".join(format_float(x) for x in v)
    ts = ", ".join(format_float(x) for x in tails)
    return f'{{"m": {v.size}, "p": [{ps}], "tail": [{ts}], {objective_json(obj)}}}\n'


def assert_same_lines(out, expected):
    # Compared as line lists: on a mismatch pytest then names the first
    # differing line, where a diff of two megabyte strings runs for minutes.
    assert out.split("\n") == expected.split("\n")


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def random_simplex(m, seed):
    draws = np.random.default_rng(seed).exponential(size=m)
    return (draws / draws.sum()).tolist()


class TestFormatFloats:
    def test_edge_values(self):
        values = EDGE_VALUES + [-x for x in EDGE_VALUES]
        assert format_floats(np.array(values)) == [format_float(x) for x in values]

    @given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_matches_scalar_formatter(self, arr):
        assert format_floats(arr) == [format_float(x) for x in arr]


class TestSolveBytes:
    @pytest.mark.parametrize("m", [1, 2, 3, 1000, cli._CHUNK, cli._CHUNK + 1, 20000])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_solve(self, capsys, m, fmt):
        code, out, err = run_main(capsys, "solve", "--days", str(m), "--format", fmt)
        assert (code, err) == (0, "")
        assert_same_lines(out, reference_solve(m, fmt))

    def test_table_csv(self, capsys):
        code, out, _ = run_main(capsys, "table", "--days", "1..30", "--format", "csv")
        assert code == 0
        blocks = [reference_solve(m, "csv") for m in range(1, 31)]
        assert_same_lines(out, "\n\n".join(block.rstrip("\n") for block in blocks) + "\n")

    def test_table_json(self, capsys):
        code, out, _ = run_main(capsys, "table", "--days", "1..30", "--format", "json")
        assert code == 0
        assert_same_lines(out, "".join(reference_solve(m, "json") for m in range(1, 31)))


EVAL_VECTORS = {
    "one": [1.0],
    "zero-one": [0, 1],
    "halves": [0.5, 0.5],
    "random": random_simplex(cli._CHUNK + 7, seed=11),
}


class TestEvalBytes:
    @pytest.mark.parametrize("name", sorted(EVAL_VECTORS))
    @pytest.mark.parametrize("source", ["json", "lines"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_eval(self, tmp_path, capsys, name, source, fmt):
        values = EVAL_VECTORS[name]
        path = tmp_path / "p.in"
        if source == "json":
            path.write_text(json.dumps(values))
        else:
            path.write_text("\n" + "\n\n".join(map(repr, values)) + "\n")
        code, out, err = run_main(capsys, "eval", "--input", str(path), "--format", fmt)
        assert (code, err) == (0, "")
        assert_same_lines(out, reference_eval(values, fmt))

    @pytest.mark.parametrize(
        "text, message",
        [
            ('[0.5, "x", 0.5]', "element 2 is not a number: 'x'"),
            ("[0.5, true, 0.5]", "element 2 is not a number: True"),
            ("[[0.5], 0.5]", "element 1 is not a number: [0.5]"),
            ("0.5\n\n  abc \n0.5\n", "line 3: not a number: 'abc'"),
        ],
    )
    def test_fallback_messages(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.in"
        path.write_text(text)
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"surprisemax: error: {path}: {message}\n"


class TestPolicyTableArrays:
    @pytest.mark.parametrize("m", [1, 2, 3, 50, 1000])
    def test_bit_equal_to_scalar_replay(self, m):
        g, rows = replay(m)
        policy = rollout(m).policy
        columns = list(zip(*rows))
        assert policy.gamma.tolist() == list(columns[1])
        assert policy.hazard.tolist() == list(columns[2])
        assert policy.remaining_before.tolist() == list(columns[3])
        assert policy.allocations.tolist() == list(columns[4])
        assert rollout(m).gamma.values.tolist() == g

    def test_rows_match_scalar_replay(self):
        _, rows = replay(40)
        assert rollout(40).policy.rows == tuple(PolicyRow(*row) for row in rows)

    def test_arrays_are_read_only(self):
        res = rollout(5)
        policy = res.policy
        for arr in (policy.gamma, policy.hazard, policy.remaining_before, policy.allocations, res.p):
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[0] = 0.5

    def test_p_is_the_stored_array(self):
        res = rollout(5)
        assert res.p is res.policy.allocations
