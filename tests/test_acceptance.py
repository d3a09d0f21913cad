"""Acceptance checklist for the shipped guarantees.

Each test covers one guarantee end to end, prints a single ``name: PASS``
or ``name: FAIL`` line (shown under ``pytest -s`` or on failure), and
asserts the same condition.  Tolerances here are the published ones; the
unit suites pin tighter bounds where the arithmetic allows it.
"""

import math
import subprocess
import sys
import time

import numpy as np

from surprisemax import (
    GridSpec,
    ascent_optimize,
    bellman_rhs,
    estimate_expected_surprise,
    eval_sm2,
    finite_diff_gradient,
    gamma_sequence,
    gradient_sm2,
    grid_search,
    policy_single,
    rollout,
    telescope_residual,
    value_v,
)
from surprisemax.simulate import SimulationConfig
from surprisemax.solver import _telescope_residuals

E_INV = math.exp(-1.0)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def best_runtime(fn, repeats: int = 5) -> float:
    fn()  # warm caches before timing
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def interior_point(rng: np.random.Generator, m: int) -> np.ndarray:
    """Random simplex point bounded away from the boundary."""
    raw = rng.dirichlet(np.ones(m)) + 0.05
    return raw / raw.sum()


def test_01_terminal_boundary():
    worst_policy = 0.0
    worst_value = 0.0
    for m in range(1, 61):
        gamma = gamma_sequence(m)
        assert gamma[m - 1] == 1.0
        if m >= 2:
            worst_policy = max(worst_policy, abs(policy_single(m - 1, 1.0, gamma) - E_INV))
            for r in (0.1, 0.5, 1.0):
                worst_value = max(worst_value, abs(value_v(m - 1, r, gamma) - (-r * E_INV)))
    runtime = best_runtime(lambda: gamma_sequence(60))
    ok = worst_policy <= 1e-15 and worst_value <= 1e-15 and runtime < 1e-3
    report(
        "terminal boundary",
        ok,
        f"policy gap {worst_policy:.2e}, value gap {worst_value:.2e}, {runtime * 1e6:.0f} us",
    )


def test_02_grid_oracle_agreement():
    start = time.perf_counter()
    fine = grid_search(2, GridSpec(10_000))
    coarse = grid_search(3, GridSpec(1_000))
    elapsed = time.perf_counter() - start
    gap2 = float(np.max(np.abs(fine.best_point - rollout(2).p)))
    gap3 = float(np.max(np.abs(coarse.best_point - rollout(3).p)))
    ok = gap2 <= 2e-4 and gap3 <= 2e-3 and elapsed < 10.0
    report(
        "grid oracle agreement",
        ok,
        f"m=2 gap {gap2:.2e}, m=3 gap {gap3:.2e}, {elapsed:.2f} s",
    )


def test_03_ascent_oracle_agreement():
    start = time.perf_counter()
    worst_point = 0.0
    worst_objective = 0.0
    for m in range(2, 13):
        result = rollout(m)
        found = ascent_optimize(m)
        worst_point = max(worst_point, float(np.max(np.abs(found.best_point - result.p))))
        worst_objective = max(worst_objective, abs(found.best_value - result.objective.sm2))
    elapsed = time.perf_counter() - start
    ok = worst_point <= 1e-6 and worst_objective <= 1e-10 and elapsed < 10.0
    report(
        "ascent oracle agreement",
        ok,
        f"point gap {worst_point:.2e}, objective gap {worst_objective:.2e}, {elapsed:.2f} s",
    )


def test_04_gradient_spread_at_optimum():
    worst = 0.0
    for m in (2, 5, 10, 50, 100, 200):
        g = gradient_sm2(rollout(m).p)
        worst = max(worst, float(g.max() - g.min()))
    ok = worst <= 1e-9
    report("gradient spread at optimum", ok, f"max spread {worst:.2e}")


def test_05_score_shift_identity():
    worst = 0.0
    for m in range(1, 21):
        rng = np.random.default_rng(500 + m)
        log_m = math.log(m)
        for _ in range(100):
            v = rng.dirichlet(np.ones(m))
            tail = 0.0
            direct = 0.0
            for j in range(m - 1, -1, -1):
                tail += v[j]
                if v[j] > 0.0:
                    direct += v[j] * math.log(v[j] / (tail / m))
            direct -= float(np.sum(v))
            shifted = eval_sm2(v) + log_m - 1.0
            worst = max(worst, abs(direct - shifted))
    ok = worst <= 1e-12
    report("score shift identity", ok, f"max gap {worst:.2e}")


def test_06_closed_form_value_consistency():
    worst = 0.0
    for m in range(1, 101):
        result = rollout(m)
        worst = max(worst, abs(eval_sm2(result.p) - (1.0 - result.gamma[0])))
    ok = worst <= 1e-10
    report("closed-form value consistency", ok, f"max gap {worst:.2e}")


def test_07_tail_sum_identity():
    worst_ratio = 0.0
    public_agrees = True
    for m in range(1, 1001):
        gamma = gamma_sequence(m)
        # one residual per start k = 1..m, each with the bits of its own call
        residuals = _telescope_residuals(gamma)
        k = m // 2 + 1
        public_agrees = public_agrees and telescope_residual(gamma, k) == residuals[k - 1]
        worst_ratio = max(worst_ratio, float(np.abs(residuals).max()) / (1e-12 * m))
    ok = worst_ratio <= 1.0 and public_agrees
    report(
        "tail sum identity",
        ok,
        f"worst residual at {worst_ratio:.3f} of budget, public call agrees: {public_agrees}",
    )


def test_08_stage_scan_recovers_policy():
    rng = np.random.default_rng(8)
    cells = 10_000
    worst_cells = 0.0
    worst_value = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 11))
        j = int(rng.integers(1, m))
        r = float(rng.uniform(0.1, 1.0))
        gamma = gamma_sequence(m)
        xs = np.linspace(0.0, r, cells + 1)
        scan = np.array([-bellman_rhs(j, r, x, gamma) for x in xs])
        k = int(np.argmax(scan))
        cell = r / cells
        worst_cells = max(worst_cells, abs(xs[k] - policy_single(j, r, gamma)) / cell)
        worst_value = max(worst_value, abs(scan[k] - (-value_v(j, r, gamma))))
    ok = worst_cells <= 1.0 and worst_value <= 1e-6
    report(
        "stage scan recovers policy",
        ok,
        f"argmax within {worst_cells:.3f} cells, value gap {worst_value:.2e}",
    )


def test_09_monte_carlo_agreement():
    worst_z = 0.0
    worst_time = 0.0
    for m in (2, 3, 10):
        result = rollout(m)
        start = time.perf_counter()
        sim = estimate_expected_surprise(
            result.p, SimulationConfig(samples=1_000_000, seed=42)
        )
        elapsed = time.perf_counter() - start
        analytic = result.gamma[0] - 1.0
        worst_z = max(worst_z, abs(sim.mean - analytic) / sim.std_error)
        worst_time = max(worst_time, elapsed)
    ok = worst_z <= 4.0 and worst_time < 5.0
    report(
        "monte carlo agreement",
        ok,
        f"max |z| {worst_z:.2f}, slowest horizon {worst_time:.2f} s",
    )


def test_10_gradient_matches_finite_differences():
    worst = 0.0
    for m in range(2, 11):
        rng = np.random.default_rng(1000 + m)
        for _ in range(100):
            v = interior_point(rng, m)
            gap = float(np.max(np.abs(gradient_sm2(v) - finite_diff_gradient(v))))
            worst = max(worst, gap)
    ok = worst <= 1e-5
    report("gradient matches finite differences", ok, f"max component gap {worst:.2e}")


def test_11_cli_determinism_and_exit_codes():
    def run(*argv, stdin=b""):
        return subprocess.run(
            [sys.executable, "-m", "surprisemax", *argv],
            input=stdin,
            capture_output=True,
        )

    repeated = [
        ("solve", "--days", "7", "--format", "json"),
        ("verify", "--days", "2..3"),
        ("simulate", "--days", "3", "--samples", "20000", "--seed", "5"),
    ]
    stable = True
    for argv in repeated:
        first = run(*argv)
        second = run(*argv)
        stable = stable and first.returncode == second.returncode == 0
        stable = stable and first.stdout == second.stdout

    codes = (
        run("solve", "--days", "3").returncode,
        run("solve", "--days", "0").returncode,
        run("verify", "--days", "2..2", "--tol", "1e-30").returncode,
        run("eval", "--input", "-", stdin=b"[0.5, 0.6]").returncode,
    )
    ok = stable and codes == (0, 1, 2, 3)
    report(
        "cli determinism and exit codes",
        ok,
        f"repeat runs identical: {stable}, exit codes {codes}",
    )
