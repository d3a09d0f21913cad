"""Byte-identity of the array-backed solver and renderers.

The references below restate the per-row algorithm: a scalar ``math.exp``
replay of the recursion and the rollout, rendered field by field with
``format_float``.  The CLI must print exactly the same bytes, and the
``PolicyTable`` arrays must carry exactly the same bits.
"""

import contextlib
import io
import json
import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surprisemax import (
    SimulationConfig,
    estimate_expected_surprise,
    objective_values,
    rollout,
    tail_masses,
)
from surprisemax import cli
from surprisemax import solver as solver_mod
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


def render_fields(pairs, fmt):
    if fmt == "csv":
        return "\n".join(["field,value"] + [f"{k},{x}" for k, x in pairs]) + "\n"
    return "{" + ", ".join(f'"{k}": {x}' for k, x in pairs) + "}\n"


def reference_simulate(m, samples, seed, fmt):
    g, rows = replay(m)
    p = np.array([row[4] for row in rows])
    sim = estimate_expected_surprise(p, SimulationConfig(samples=samples, seed=seed))
    analytic = g[0] - 1.0
    z_gap = (sim.mean - analytic) / sim.std_error if sim.std_error > 0.0 else 0.0
    pairs = [
        ("m", str(m)),
        ("samples", str(samples)),
        ("seed", str(seed)),
        ("mean", format_float(sim.mean)),
        ("std_error", format_float(sim.std_error)),
        ("analytic", format_float(analytic)),
        ("z_gap", format_float(z_gap)),
    ]
    return render_fields(pairs, fmt)


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


def powers_and_neighbours():
    """Every finite ``2.0**e`` and ``10.0**e``, the doubles on either side, and their negatives."""
    powers = np.array([2.0**e for e in range(-1074, 1024)] + [10.0**e for e in range(-323, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


class TestFormatFloats:
    """``format_floats`` and the renderer under it print what ``repr`` prints."""

    def test_edge_values(self):
        values = EDGE_VALUES + [-x for x in EDGE_VALUES]
        assert format_floats(np.array(values)) == [format_float(x) for x in values]

    @given(arrays(np.float64, st.integers(0, 40), elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_matches_scalar_formatter(self, arr):
        assert format_floats(arr) == [format_float(x) for x in arr]

    # any 64-bit pattern, and subnormals and zeros of either sign more often
    @given(
        st.lists(
            st.one_of(
                st.integers(0, 2**64 - 1),
                st.integers(0, 2**52),
                st.integers(2**63, 2**63 + 2**52),
            ),
            max_size=60,
        )
    )
    def test_any_finite_bit_pattern(self, bits):
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        assert format_floats(values) == [format_float(x) for x in values]

    def test_powers_and_their_neighbours(self):
        values = powers_and_neighbours()
        assert format_floats(values) == [format_float(x) for x in values]

    def test_witnesses(self):
        texts = {
            8e-323: "8e-323",
            5e-324: "5e-324",
            2.2250738585072014e-308: "2.2250738585072014e-308",
            1e23: "1e+23",
            9.999999999999999e-05: "9.999999999999999e-05",
            1e-05: "1e-05",
            0.0001: "0.0001",
            1e16: "1e+16",
            1e15: "1000000000000000",
            1.7976931348623157e308: "1.7976931348623157e+308",
            123.0: "123",
            0.1: "0.1",
            -0.0: "-0",
        }
        assert format_floats(np.array(list(texts))) == list(texts.values())
        assert list(texts.values()) == [format_float(x) for x in texts]

    def test_non_finite_entries(self):
        values = [float("nan"), float("inf"), 0.5, float("-inf")]
        assert format_floats(np.array(values)) == ["nan", "inf", "0.5", "-inf"]

    def test_dimensions(self):
        assert format_floats(np.array(1.5)) == ["1.5"]
        assert format_floats(np.zeros(0)) == []
        for values in ([[0.1, 2.0], [3.0, 1e23]], [[0.1, math.nan]], np.zeros((1, 1, 1))):
            ndim = np.ndim(values)
            with pytest.raises(ValueError, match=f"got {ndim} dimensions"):
                format_floats(np.array(values))

    def test_run_memory(self):
        # one JSON run of the longest entries: 24 characters and a negative exponent
        run = -np.random.default_rng(5).random(cli._CHUNK) * 1e-300
        list(cli._json_list(run))
        tracemalloc.start()
        try:
            list(cli._json_list(run))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


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


CAP = solver_mod._RETAINED_DAYS


def cold_solve(m, fmt):
    """``solve --days m`` stdout from a fresh rollout, each column rendered
    whole by one ``format_floats`` call, with nothing kept between horizons."""
    res = rollout(m)
    policy = res.policy
    if fmt == "csv":
        columns = (policy.gamma, policy.hazard, policy.allocations, policy.remaining_before)
        rows = zip(map(str, range(1, m + 1)), *map(format_floats, columns))
        return "j,gamma,hazard,p,remaining_before\n" + "\n".join(map(",".join, rows)) + "\n"
    return (
        f'{{"m": {m}, "gamma0": {format_float(res.gamma[0])}, '
        f'"gamma": [{", ".join(format_floats(policy.gamma))}], '
        f'"p": [{", ".join(format_floats(res.p))}], {objective_json(res.objective)}, '
        f'"value_at_root": {format_float(res.value_at_root)}}}\n'
    )


def cold_table(lo, hi, fmt):
    """``table --days lo..hi`` stdout, joined from ``cold_solve`` blocks as ``table`` joins them."""
    blocks = [cold_solve(m, fmt) for m in range(lo, hi + 1)]
    return ("\n" if fmt == "csv" else "").join(blocks)


@given(st.integers(0, 40 * cli._CHUNK))
def test_chunks_counted_from_the_end(n):
    runs = list(cli._chunks(n))
    # the runs cover 0..n in order; only the first may be short
    edges = [0] + [hi for _, hi in runs]
    assert [lo for lo, _ in runs] == edges[:-1]
    assert edges[-1] == n
    assert all(0 < hi - lo <= cli._CHUNK for lo, hi in runs)
    assert all(hi - lo == cli._CHUNK for lo, hi in runs[1:])
    # every whole number of runs back from the end is a run boundary: at the
    # cap, the first kept day of a longer horizon
    assert {n - k for k in range(cli._CHUNK, n, cli._CHUNK)} <= set(edges)
    assert CAP == cli._KEPT_RUNS * cli._CHUNK


class TestSharedText:
    """Stdout read from the kept gamma/hazard text equals a cold rendering.

    ``TestSharedTextSmall`` runs every case again at the small kept state of
    the ``small_kept`` fixture.
    """

    @pytest.fixture
    def days(self, cold_text):
        """The day counts of this size, from those of the full-size cases."""
        return lambda n: n

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_after_a_longer_horizon(self, days, capsys, fmt):
        run_main(capsys, "solve", "--days", str(days(CAP + 2)), "--format", fmt)
        for m in map(days, (CAP + 1, 4097, CAP - 1, 4095, CAP, 4096)):
            code, out, err = run_main(capsys, "solve", "--days", str(m), "--format", fmt)
            assert (code, err) == (0, "")
            assert_same_lines(out, cold_solve(m, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "first, lo, hi", [(10, 4094, 4098), (4096, 4094, 4098), (CAP - 2, CAP - 1, CAP + 1)]
    )
    def test_span_that_grows_the_text(self, days, capsys, fmt, first, lo, hi):
        first, lo, hi = map(days, (first, lo, hi))
        run_main(capsys, "solve", "--days", str(first), "--format", fmt)
        code, out, err = run_main(capsys, "table", "--days", f"{lo}..{hi}", "--format", fmt)
        assert (code, err) == (0, "")
        assert_same_lines(out, cold_table(lo, hi, fmt))

    def test_retention_capped(self, days):
        # per kept day a 24-byte field per column and 16 B in the solver: 64 B,
        # 64.06 B measured at the full size; 4 KiB for the arrays' headers and
        # small objects, most of it at the small size
        cap = days(CAP)
        stores = (cli._GAMMA_TEXT, cli._HAZARD_TEXT)
        tracemalloc.start()
        try:
            policy = rollout(2 * cap).policy
            for store, column in zip(stores, (policy.gamma, policy.hazard)):
                for lo, hi in cli._chunks(column.size):
                    store.fields(column, lo, hi)
            del policy, column
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        for store in stores:
            assert store._fields.shape == (cap, cli._FIELD_BYTES)
        assert retained <= 66 * cap + 4096

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_past_the_cap_renders_only_the_extra_days(self, days, capsys, monkeypatch, fmt):
        # after a horizon at the cap, one 5000 days longer formats its first
        # 5000 gamma (and hazard) entries; the rest are read from the kept rows
        run_main(capsys, "solve", "--days", str(days(CAP)), "--format", fmt)
        formatted = []
        padded = cli._padded
        monkeypatch.setattr(cli, "_padded", lambda v: formatted.append(len(v)) or padded(v))
        m = days(CAP + 5000)
        extra = m - days(CAP)
        code, out, err = run_main(capsys, "solve", "--days", str(m), "--format", fmt)
        assert (code, err) == (0, "")
        # p, and remaining_before in CSV, are rendered per horizon
        per_horizon, kept = (2 * m, 2 * extra) if fmt == "csv" else (m, extra)
        assert sum(formatted) == per_horizon + kept
        assert_same_lines(out, cold_solve(m, fmt))


class TestSharedTextSmall(TestSharedText):
    @pytest.fixture
    def days(self, small_kept):
        return small_kept


def field_lines_reference(name, values):
    return "".join(f"{name}_{j},{format_float(x)}\n" for j, x in enumerate(values, 1))


finite = st.floats(allow_nan=False, allow_infinity=False)


class TestRowLayout:
    """CSV runs laid out from byte fields equal the per-row ``format_float`` text."""

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0, 12),
            (0, cli._CHUNK),
            (95, 105),
            (9990, 10010),
            (99_990, 100_010),
            (999_990, 1_000_010),
            (9_999_990, 10_000_010),
            (99_999_995, 100_000_005),
        ],
    )
    def test_day_numbers_across_widths(self, lo, hi):
        text = cli._laid_out(hi - lo, [cli._day_digits(lo, hi), b"\n"])
        assert text == "".join(f"{j}\n" for j in range(lo + 1, hi + 1))

    @given(arrays(np.float64, st.integers(1, 40), elements=finite | st.sampled_from([0.0, 1.0])))
    def test_field_lines_in_short_runs(self, values):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "_CHUNK", 8)
            assert "".join(cli._csv_field_lines("p", values)) == field_lines_reference("p", values)

    def test_field_lines_across_day_widths(self):
        # full-size runs over j = 9/10, 99/100, 999/1000 and 9999/10000, every
        # fifth entry 0
        values = np.array(random_simplex(10_005, seed=4))
        values[::5] = 0.0
        values /= values.sum()
        for name, column in (("p", values), ("tail", tail_masses(values))):
            lines = "".join(cli._csv_field_lines(name, column))
            assert_same_lines(lines, field_lines_reference(name, column))

    def test_non_finite_column_falls_back(self):
        values = np.array([math.nan, math.inf, 0.5, -math.inf, -0.0, 5e-324])
        assert cli._padded(values).shape == (values.size, cli._FIELD_BYTES)
        assert "".join(cli._csv_field_lines("x", values)) == field_lines_reference("x", values)
        assert format_floats(values) == list(map(format_float, values))

    @settings(max_examples=20, deadline=None)
    @given(
        st.sampled_from([(16, 4), (24, 8), (64, 8), (64, 64)]),
        st.lists(st.integers(1, 100), min_size=1, max_size=4),
        st.sampled_from(["csv", "json"]),
    )
    def test_kept_fields_across_the_cap(self, kept, horizons, fmt):
        cap, run = kept
        fresh = (np.zeros(1), np.zeros(0))
        for arr in fresh:
            arr.setflags(write=False)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(solver_mod, "_RETAINED_DAYS", cap)
            patch.setattr(cli, "_CHUNK", run)
            patch.setattr(cli, "_KEPT_RUNS", cap // run)
            patch.setattr(solver_mod, "_shared", fresh)
            for store in (cli._GAMMA_TEXT, cli._HAZARD_TEXT):
                patch.setattr(store, "_fields", cli._SequenceText()._fields)
            for m in horizons:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main(["solve", "--days", str(m), "--format", fmt]) == 0
                assert_same_lines(out.getvalue(), cold_solve(m, fmt))

    def test_csv_run_memory(self, cold_text):
        # one run of the longest entries in every float column; the kept
        # rows are grown by the first pass
        run = -np.random.default_rng(5).random(cli._CHUNK) * 1e-300
        policy = types.SimpleNamespace(
            m=run.size, gamma=run, hazard=run, allocations=run, remaining_before=run
        )
        result = types.SimpleNamespace(policy=policy)
        list(cli._render_solve_csv(result))
        tracemalloc.start()
        try:
            for _ in cli._render_solve_csv(result):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6


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
            ("1_0e-1\n0.0\n", "line 1: not a number: '1_0e-1'"),
            ("0.5\n\u0660.\u0665\n", "line 2: not a number: '\u0660.\u0665'"),
            ("\uff11\n", "line 1: not a number: '\uff11'"),
        ],
    )
    def test_fallback_messages(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.in"
        path.write_text(text)
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"surprisemax: error: {path}: {message}\n"


class TestSimulateBytes:
    @pytest.mark.parametrize("m, samples, seed", [(1, 1, 0), (3, 100, 1), (50, 1000, 7)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_simulate(self, capsys, m, samples, seed, fmt):
        code, out, err = run_main(
            capsys,
            "simulate", "--days", str(m), "--samples", str(samples), "--seed", str(seed),
            "--format", fmt,
        )
        assert (code, err) == (0, "")
        assert out == reference_simulate(m, samples, seed, fmt)


# Check labels of ``verify`` per horizon.  The gap values are not frozen:
# np.exp and np.log may differ in the last ulp from one CPU to another.
VERIFY_LABELS = {
    1: ["ascent-linf", "ascent-objective", "telescope", "gradient-spread"],
    2: ["ascent-linf", "ascent-objective", "grid-linf N=10000", "stationarity",
        "telescope", "gradient-spread"],
    3: ["ascent-linf", "ascent-objective", "grid-linf N=1000", "stationarity",
        "telescope", "gradient-spread"],
    4: ["ascent-linf", "ascent-objective", "stationarity", "telescope", "gradient-spread"],
}
VERIFY_LINE = re.compile(r"m=(\d+) (.+) gap=(\S+) tol=(\S+) (ok|FAIL)")


def verify_tol(m, label, ascent_tol):
    if label == "ascent-linf":
        return ascent_tol
    if label.startswith("grid-linf"):
        return 2.0 / int(label.rpartition("=")[2])
    return {
        "ascent-objective": 1e-10,
        "stationarity": 1e-12,
        "telescope": 1e-12 * m,
        "gradient-spread": 1e-9,
    }[label]


def parse_verify_lines(lines, ascent_tol):
    """``(m, label, gap, marker)`` of each check line, tolerances asserted."""
    checks = []
    for line in lines:
        match = VERIFY_LINE.fullmatch(line)
        assert match, line
        m, label, gap, tol, marker = match.groups()
        m = int(m)
        assert tol == format_float(verify_tol(m, label, ascent_tol))
        assert gap == format_float(float(gap))
        checks.append((m, label, float(gap), marker))
    return checks


class TestVerifyLines:
    def test_pass_days_1_to_4(self, capsys):
        code, out, err = run_main(capsys, "verify", "--days", "1..4")
        assert (code, err) == (0, "")
        lines = out.split("\n")
        assert lines[-1] == ""
        checks = parse_verify_lines(lines[:-2], 1e-6)
        assert [(m, label) for m, label, _, _ in checks] == [
            (m, label) for m in range(1, 5) for label in VERIFY_LABELS[m]
        ]
        assert all(marker == "ok" for _, _, _, marker in checks)
        ascent_gaps = [gap for _, label, gap, _ in checks if label == "ascent-linf"]
        assert lines[-2] == f"verify: PASS days=1..4 max_ascent_gap={format_float(max(ascent_gaps))}"

    def test_impossible_tolerance_stops_at_first_failure(self, capsys):
        code, out, err = run_main(capsys, "verify", "--days", "1..4", "--tol", "1e-30")
        assert (code, err) == (2, "")
        lines = out.split("\n")
        assert lines[-1] == ""
        checks = parse_verify_lines(lines[:-2], 1e-30)
        assert [(m, label, marker) for m, label, _, marker in checks] == [
            (1, label, "ok") for label in VERIFY_LABELS[1]
        ] + [(2, "ascent-linf", "FAIL")]
        assert lines[-2] == "verify: FAIL first failure m=2 ascent-linf"


    def test_non_ascii_blanks_still_stripped(self, tmp_path, capsys):
        # The ASCII screen fails on such a file; the per-line walk must
        # still strip the blanks around each number as str.strip does.
        path = tmp_path / "p.in"
        path.write_text("\u00a00.5\n0.5\u2003\n", encoding="utf-8")
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert (code, err) == (0, "")
        assert out == reference_eval([0.5, 0.5], "json")


class TestPolicyTableArrays:
    @pytest.mark.parametrize("m", [1, 2, 3, 40, 50, 1000, 4097, 200_000])
    def test_bit_equal_to_scalar_replay(self, m):
        g, rows = replay(m)
        policy = rollout(m).policy
        columns = list(zip(*rows))
        assert policy.gamma.tolist() == list(columns[1])
        assert policy.hazard.tolist() == list(columns[2])
        assert policy.remaining_before.tolist() == list(columns[3])
        assert policy.allocations.tolist() == list(columns[4])
        assert rollout(m).gamma.values.tolist() == g

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
