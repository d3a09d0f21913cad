"""Command-line behavior: schemas, exit codes, parsing, determinism."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surprisemax import (
    eval_sm2,
    gamma_sequence,
    rollout,
    stationarity_residual,
    tail_masses,
    telescope_residual,
)
from surprisemax.cli import _VERIFY_MASSES, format_floats, load_distribution, main

SOLVE_KEYS = ["m", "gamma0", "gamma", "p", "objective", "value_at_root"]
OBJECTIVE_KEYS = ["sm1", "sm2", "expected_surprise"]


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "surprisemax", *argv],
        capture_output=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestSolve:
    def test_one_day_csv_bytes(self, capsys):
        code, out, _ = run_main(capsys, "solve", "--days", "1", "--format", "csv")
        assert code == 0
        assert out == "j,gamma,hazard,p,remaining_before\n1,0,1,1,1\n"

    def test_two_day_json_schema(self, capsys):
        code, out, _ = run_main(capsys, "solve", "--days", "2", "--format", "json")
        assert code == 0
        pairs = json.loads(out, object_pairs_hook=list)
        assert [k for k, _ in pairs] == SOLVE_KEYS
        data = dict(pairs)
        assert [k for k, _ in data["objective"]] == OBJECTIVE_KEYS
        assert data["m"] == 2
        assert data["p"] == [0.36787944117144233, 0.6321205588285577]
        assert data["gamma"] == [1, 0]
        assert data["gamma0"] == 1.3678794411714423

    def test_csv_and_json_carry_identical_values(self, capsys):
        _, json_out, _ = run_main(capsys, "solve", "--days", "5", "--format", "json")
        data = json.loads(json_out)
        _, csv_out, _ = run_main(capsys, "solve", "--days", "5", "--format", "csv")
        lines = csv_out.strip().split("\n")
        assert lines[0] == "j,gamma,hazard,p,remaining_before"
        res = rollout(5)
        for line, row in zip(lines[1:], res.policy.rows):
            j, gamma, hazard, p, remaining = line.split(",")
            assert int(j) == row.day
            assert float(gamma) == row.gamma
            assert float(hazard) == row.hazard
            assert float(p) == row.allocation
            assert float(remaining) == row.remaining_before
        assert data["p"] == [row.allocation for row in res.policy.rows]
        assert data["value_at_root"] == res.value_at_root

    def test_zero_days_is_usage_error(self, capsys):
        code, out, err = run_main(capsys, "solve", "--days", "0")
        assert code == 1
        assert out == ""
        assert "at least 1" in err

    def test_non_numeric_days(self, capsys):
        code, _, err = run_main(capsys, "solve", "--days", "soon")
        assert code == 1
        assert "invalid --days" in err

    def test_missing_days_flag(self, capsys):
        code, _, err = run_main(capsys, "solve")
        assert code == 1
        assert "required" in err

    def test_unknown_format(self, capsys):
        code, _, err = run_main(capsys, "solve", "--days", "2", "--format", "xml")
        assert code == 1


class TestTable:
    def test_csv_blocks(self, capsys):
        code, out, _ = run_main(capsys, "table", "--days", "1..3", "--format", "csv")
        assert code == 0
        blocks = out.split("\n\n")
        assert len(blocks) == 3
        assert blocks[0] == "j,gamma,hazard,p,remaining_before\n1,0,1,1,1"
        for block in blocks:
            assert block.startswith("j,gamma,hazard,p,remaining_before")

    def test_json_lines(self, capsys):
        code, out, _ = run_main(capsys, "table", "--days", "2..4", "--format", "json")
        assert code == 0
        lines = out.strip().split("\n")
        assert [json.loads(line)["m"] for line in lines] == [2, 3, 4]

    def test_single_value_span(self, capsys):
        code, out, _ = run_main(capsys, "table", "--days", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["m"] == 2

    def test_backwards_span(self, capsys):
        code, _, err = run_main(capsys, "table", "--days", "3..2")
        assert code == 1
        assert "empty" in err


class TestEval:
    def test_json_array_input(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text("[0.5, 0.5]")
        code, out, _ = run_main(capsys, "eval", "--input", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["m"] == 2
        assert data["p"] == [0.5, 0.5]
        assert data["tail"] == [1, 0.5]
        assert data["objective"]["sm2"] == -0.34657359027997264
        assert data["objective"]["expected_surprise"] == 0.34657359027997264

    def test_lines_input_csv_output(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text("0.25\n0.75\n")
        code, out, _ = run_main(capsys, "eval", "--input", str(path), "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "field,value"
        fields = dict(line.split(",", 1) for line in lines[1:])
        assert fields["m"] == "2"
        assert fields["p_1"] == "0.25"
        assert fields["tail_1"] == "1"
        assert float(fields["sm2"]) == eval_sm2(np.array([0.25, 0.75]))

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("[1.0]"))
        code, out, _ = run_main(capsys, "eval", "--input", "-")
        assert code == 0
        data = json.loads(out)
        assert data["objective"]["sm1"] == -1
        assert data["objective"]["sm2"] == 0

    def test_bad_sum_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[0.5, 0.6]")
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert out == ""
        assert "sum 1.1 exceeds tolerance" in err

    def test_bad_line_names_line_number(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("0.25\nabc\n0.75\n")
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "line 2" in err

    def test_bad_json_element_named(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('[0.5, "x"]')
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "element 2" in err

    def test_json_integer_beyond_float_range_named(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text("[1" + "0" * 400 + ", 0.5]")
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "element 1" in err

    @pytest.mark.parametrize(
        "text", ["[1" + "0" * 5000 + ", 0.5]", "[" * 100_000 + "]" * 100_000], ids=["long", "deep"]
    )
    def test_json_beyond_decoder_limits(self, tmp_path, capsys, text):
        path = tmp_path / "limits.json"
        path.write_text(text)
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "invalid JSON" in err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("[0.5,")
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"a": 1}', "expected a JSON array of numbers"),
            (' \n{"p": [0.5, 0.5]}\n', "expected a JSON array of numbers"),
            ('{"a": ', "invalid JSON: Expecting value (line 1 column 6)"),
        ],
    )
    def test_input_starting_with_brace_is_json(self, tmp_path, capsys, text, message):
        path = tmp_path / "object.json"
        path.write_text(text)
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == f"surprisemax: error: {path}: {message}\n"

    def test_missing_file(self, capsys):
        code, _, err = run_main(capsys, "eval", "--input", "/nonexistent/p.json")
        assert code == 3
        assert "cannot read" in err

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("  \n")
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "empty" in err

    def test_negative_entry(self, tmp_path, capsys):
        path = tmp_path / "neg.json"
        path.write_text("[1.5, -0.5]")
        code, _, err = run_main(capsys, "eval", "--input", str(path))
        assert code == 3
        assert "nonnegative" in err

    @pytest.mark.parametrize(
        "data, offset", [(b"0.5\n0.5\xff\n", 7), (b"0.5\n" * 3000 + b"\xff0.5\n", 12000)]
    )
    def test_file_not_utf8_is_parse_error(self, tmp_path, capsys, data, offset):
        # the offset counts from the file's first byte, past the reader's
        # 8 KiB buffer too
        path = tmp_path / "latin.txt"
        path.write_bytes(data)
        code, out, err = run_main(capsys, "eval", "--input", str(path))
        assert (code, out) == (3, "")
        assert err == (
            f"surprisemax: error: {path}: not UTF-8 at byte offset {offset}: invalid start byte\n"
        )

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(1, 300),
        st.sampled_from([0.0, 0.1, 0.5]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    def test_round_trip(self, m, zeros, seed, as_json):
        # a schedule written as format_floats text reads back to its bits,
        # and eval prints it as that text
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.ones(m))
        p[rng.random(m) < zeros] = 0.0
        if not p.any():
            p[rng.integers(m)] = 1.0
        p /= p.sum()
        texts = format_floats(p)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "p.json" if as_json else "p.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(f"[{', '.join(texts)}]" if as_json else "\n".join(texts) + "\n")
            assert load_distribution(path).tobytes() == p.tobytes()
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(["eval", "--input", path, "--format", "json"]) == 0
        assert f'"p": [{", ".join(texts)}], ' in out.getvalue()
        tail = np.array(json.loads(out.getvalue())["tail"], dtype=np.float64)
        assert tail.tobytes() == tail_masses(p).tobytes()


class TestVerify:
    def test_trivial_horizon(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--days", "1..1")
        assert code == 0
        assert out.strip().split("\n")[-1].startswith("verify: PASS")

    def test_small_span_passes_with_grid_rows(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--days", "2..3")
        assert code == 0
        assert "grid-linf N=10000" in out
        assert "grid-linf N=1000" in out
        assert "ascent-linf" in out
        assert "telescope" in out
        assert "FAIL" not in out

    def test_grid_override(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--days", "2..2", "--grid", "200")
        assert code == 0
        assert "grid-linf N=200" in out

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_main(capsys, "verify", "--days", "2..2", "--tol", "1e-30")
        assert code == 2
        lines = out.strip().split("\n")
        assert lines[0].endswith("FAIL")
        assert lines[-1].startswith("verify: FAIL")
        assert "m=2 ascent-linf" in lines[-1]

    @pytest.mark.parametrize("m", [2, 50, 2000])
    def test_residual_gaps_are_the_public_residuals(self, capsys, m):
        code, out, _ = run_main(capsys, "verify", "--days", str(m))
        assert code == 0
        gaps = {}
        for line in out.splitlines()[:-1]:
            label, _, rest = line.partition(" gap=")
            gaps[label] = float(rest.partition(" ")[0])
        g = gamma_sequence(m)
        assert gaps[f"m={m} stationarity"] == max(
            abs(stationarity_residual(j, r, g)) for j in range(1, m) for r in _VERIFY_MASSES
        )
        assert gaps[f"m={m} telescope"] == max(
            abs(telescope_residual(g, k)) for k in range(1, m + 1)
        )

    def test_bad_span(self, capsys):
        code, _, err = run_main(capsys, "verify", "--days", "0..3")
        assert code == 1
        assert "start at 1" in err

    def test_bad_tol(self, capsys):
        code, _, err = run_main(capsys, "verify", "--days", "2..2", "--tol", "0")
        assert code == 1
        assert "--tol" in err

    @pytest.mark.parametrize(
        "tol, words",
        [
            # read as eval reads numbers: ASCII without "_"
            ("1_0e-7", "invalid float value: '1_0e-7'"),
            ("١e-6", "invalid float value: '١e-6'"),
            # an infinite tolerance would pass every ascent
            ("inf", "--tol must be finite, got inf"),
            ("1e400", "--tol must be finite, got inf"),
            ("0", "--tol must be positive, got 0.0"),
            ("-1", "--tol must be positive, got -1.0"),
            ("nan", "--tol must be positive, got nan"),
        ],
    )
    def test_tol_refused(self, capsys, tol, words):
        code, out, err = run_main(capsys, "verify", "--days", "2", "--tol", tol)
        assert (code, out) == (1, "")
        assert words in err

    @pytest.mark.parametrize(
        "days, grid",
        [
            ("2..2", "1"),
            # (20001 * 20002) / 2 = 200,030,001 points at m = 3, over the cap
            ("3..3", "20000"),
            # the grid does not apply at m = 5..6, but is still checked
            ("5..6", "1"),
        ],
    )
    def test_bad_grid_is_usage_error(self, capsys, days, grid):
        code, out, err = run_main(capsys, "verify", "--days", days, "--grid", grid)
        assert code == 1
        assert out == ""
        assert "--grid" in err

    def test_bad_grid_refused_before_first_horizon(self, capsys, monkeypatch):
        import surprisemax.cli as cli

        horizons = []
        monkeypatch.setattr(cli, "rollout", lambda m: horizons.append(m) or rollout(m))
        code, out, err = run_main(capsys, "verify", "--days", "1..3", "--grid", "1")
        assert (code, out, horizons) == (1, "", [])
        assert "--grid" in err

    @pytest.mark.parametrize("days", ["1..3", "3..3", "3..9"])
    def test_grid_cap_refused_before_first_horizon(self, capsys, monkeypatch, days):
        # (20001 * 20002) / 2 points at m = 3; m = 1 and m = 2 must not run first
        import surprisemax.cli as cli

        horizons = []
        monkeypatch.setattr(cli, "rollout", lambda m: horizons.append(m) or rollout(m))
        code, out, err = run_main(capsys, "verify", "--days", days, "--grid", "20000")
        assert (code, out, horizons) == (1, "", [])
        assert err == (
            "surprisemax: error: --grid: grid has 200030001 points, above the cap of 100000000\n"
        )

    @pytest.mark.parametrize("days", ["2..2", "4..5"])
    def test_grid_cap_applies_only_where_the_grid_runs(self, capsys, days):
        # 20,001 points at m = 2 is under the cap, and m >= 4 runs no grid
        code, out, _ = run_main(capsys, "verify", "--days", days, "--grid", "20000")
        assert code == 0
        assert out.splitlines()[-1].startswith("verify: PASS")


class TestSimulate:
    def test_single_day_exact(self, capsys):
        code, out, _ = run_main(
            capsys, "simulate", "--days", "1", "--samples", "10", "--seed", "7"
        )
        assert code == 0
        data = json.loads(out)
        assert data["mean"] == 0
        assert data["std_error"] == 0
        assert data["analytic"] == 0
        assert data["z_gap"] == 0

    def test_two_days_matches_analytic(self, capsys):
        code, out, _ = run_main(
            capsys, "simulate", "--days", "2", "--samples", "20000", "--seed", "42"
        )
        assert code == 0
        data = json.loads(out)
        assert data["samples"] == 20000
        assert data["seed"] == 42
        assert abs(data["z_gap"]) < 4.0

    def test_csv_fields(self, capsys):
        code, out, _ = run_main(
            capsys,
            "simulate", "--days", "3", "--samples", "100", "--seed", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "field,value"
        keys = [line.split(",", 1)[0] for line in lines[1:]]
        assert keys == ["m", "samples", "seed", "mean", "std_error", "analytic", "z_gap"]

    def test_zero_samples(self, capsys):
        code, _, err = run_main(capsys, "simulate", "--days", "2", "--samples", "0")
        assert code == 1
        assert "--samples" in err

    def test_negative_seed(self, capsys):
        code, _, err = run_main(capsys, "simulate", "--days", "2", "--seed", "-1")
        assert code == 1
        assert "--seed" in err

    @pytest.mark.parametrize("samples, code", [("100", 0), ("101", 1)])
    def test_sample_cap_refused_before_the_rollout(self, capsys, monkeypatch, samples, code):
        import surprisemax.cli as cli
        import surprisemax.simulate as simulate

        monkeypatch.setattr(simulate, "SAMPLE_CAP", 100)
        horizons = []
        monkeypatch.setattr(cli, "rollout", lambda m: horizons.append(m) or rollout(m))
        got, out, err = run_main(capsys, "simulate", "--days", "2", "--samples", samples)
        assert (got, bool(out), horizons) == (code, code == 0, [2] if code == 0 else [])
        if code:
            assert err == "surprisemax: error: --samples: sample count 101 is above the cap of 100\n"


class TestIntegerFlags:
    """Every integer flag reads ASCII digits without ``_``, as ``eval`` reads numbers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--days", "1_0"],
            ["solve", "--days", "\u0663"],
            ["table", "--days", "1..1_0"],
            ["table", "--days", "\u0663..5"],
            ["verify", "--days", "2", "--grid", "4_0"],
            ["verify", "--days", "2", "--seed", "\u0661"],
            ["simulate", "--days", "3", "--samples", "1_000"],
            ["simulate", "--days", "3", "--seed", "1_0"],
        ],
    )
    def test_refused(self, capsys, argv):
        code, out, err = run_main(capsys, *argv)
        assert (code, out) == (1, "")
        assert repr(argv[-1]) in err

    def test_plain_values_still_read(self, capsys):
        code, out, _ = run_main(capsys, "simulate", "--days", "3", "--samples", "+10", "--seed", " 7 ")
        assert code == 0
        assert '"samples": 10' in out and '"seed": 7' in out


class TestTopLevel:
    def test_no_arguments(self, capsys):
        code, _, err = run_main(capsys)
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_main(capsys, "optimality")
        assert code == 1

    def test_help_exits_clean(self, capsys):
        code, _, _ = run_main(capsys, "--help")
        assert code == 0


class TestProcessLevel:
    def test_entry_point_runs(self):
        code, out, err = run_process("solve", "--days", "1", "--format", "csv")
        assert code == 0
        assert out == b"j,gamma,hazard,p,remaining_before\n1,0,1,1,1\n"

    def test_scalar_subcommands_leave_the_float_tables_unbuilt(self):
        # simulate, verify and a usage error print scalars alone; solve prints columns
        script = """
import contextlib, io, sys
from surprisemax import cli
for argv in (
    ["simulate", "--days", "3", "--samples", "100"],
    ["verify", "--days", "2"],
    ["solve", "--days", "0"],
    ["solve", "--days", "3"],
):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(argv)
    print(argv[0], "surprisemax._floattext" in sys.modules)
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n") == [
            "simulate False", "verify False", "solve False", "solve True", ""
        ]

    def test_identical_invocations_identical_bytes(self):
        first = run_process("solve", "--days", "6", "--format", "json")
        second = run_process("solve", "--days", "6", "--format", "json")
        assert first == second
        assert first[0] == 0
