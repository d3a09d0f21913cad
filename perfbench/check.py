"""Independent checker for the outputs of the surprisemax CLI.

It never imports the package under test.  The schedule is recomputed here with
its own ``math.exp`` recursion:

    gamma_m = 0,  gamma_{j-1} = gamma_j + exp(-gamma_j),
    x_j = r_j * exp(-gamma_j),  r_1 = 1,  r_{j+1} = r_j - x_j,

which the package documents as bit-reproducible, so solve output must match it
bit for bit.
"""

from __future__ import annotations

import json
import math

SUM_TOL = 1e-9      # |sum(p) - 1| for a solved schedule
SM2_TOL = 1e-12     # eval's sm2 against the fsum reference
Z_GAP_MAX = 6.0     # Monte Carlo gap in standard errors


def gamma_ref(m: int) -> list[float]:
    g = [0.0] * (m + 1)
    for j in range(m, 0, -1):
        g[j - 1] = g[j] + math.exp(-g[j])
    return g


def schedule_ref(g: list[float]) -> list[float]:
    p = []
    remaining = 1.0
    for gj in g[1:]:
        x = remaining * math.exp(-gj)
        p.append(x)
        remaining -= x
    return p


def sm2_ref(p: list[float]) -> float:
    """``sum_j p_j (log p_j - log T_j)`` with tails accumulated right to left."""
    tails = [0.0] * len(p)
    acc = 0.0
    for j in range(len(p) - 1, -1, -1):
        acc += p[j]
        tails[j] = acc
    return math.fsum(pj * (math.log(pj) - math.log(tj)) for pj, tj in zip(p, tails) if pj > 0.0)


def _flag(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _pairs(out: str, fmt: str) -> dict:
    """Fields of a flat result, from either the CSV or the JSON rendering."""
    if fmt == "json":
        return json.loads(out)
    lines = out.splitlines()
    if lines[0] != "field,value":
        raise ValueError(f"unexpected CSV header {lines[0]!r}")
    return dict(line.split(",", 1) for line in lines[1:])


def _check_solve(argv: list[str], out: str) -> str | None:
    m = int(_flag(argv, "--days"))
    g = gamma_ref(m)
    p = schedule_ref(g)
    if _flag(argv, "--format", "json") == "json":
        data = json.loads(out)
        if data["m"] != m or float(data["gamma0"]) != g[0]:
            return "m or gamma0 differs from the reference recursion"
        got_g, got_p = data["gamma"], data["p"]
    else:
        lines = out.splitlines()
        if lines[0] != "j,gamma,hazard,p,remaining_before" or len(lines) != m + 1:
            return "CSV header or row count is wrong"
        rows = [line.split(",") for line in lines[1:]]
        if any(int(row[0]) != j for j, row in enumerate(rows, 1)):
            return "CSV day column is not 1..m"
        got_g = [row[1] for row in rows]
        got_p = [row[3] for row in rows]
    if [float(x) for x in got_g] != g[1:]:
        return "gamma differs from the reference recursion"
    got_p = [float(x) for x in got_p]
    if got_p != p:
        return "p differs from the reference recursion"
    if abs(math.fsum(got_p) - 1.0) > SUM_TOL:
        return "p does not sum to 1"
    return None


def _check_eval(argv: list[str], out: str, vectors: dict) -> str | None:
    v = vectors[_flag(argv, "--input")]
    fmt = _flag(argv, "--format", "json")
    fields = _pairs(out, fmt)
    sm2 = fields["objective"]["sm2"] if fmt == "json" else fields["sm2"]
    if int(fields["m"]) != len(v):
        return "m differs from the input length"
    if not abs(float(sm2) - sm2_ref(v)) <= SM2_TOL:
        return f"sm2 {sm2} is off the fsum reference by more than {SM2_TOL:g}"
    return None


def _check_simulate(argv: list[str], out: str) -> str | None:
    fields = _pairs(out, _flag(argv, "--format", "json"))
    m = int(_flag(argv, "--days"))
    echoed = (int(fields["m"]), int(fields["samples"]), int(fields["seed"]))
    if echoed != (m, int(_flag(argv, "--samples")), int(_flag(argv, "--seed"))):
        return "m, samples or seed not echoed"
    if float(fields["analytic"]) != gamma_ref(m)[0] - 1.0:
        return "analytic differs from gamma0 - 1"
    if not abs(float(fields["z_gap"])) <= Z_GAP_MAX:
        return f"|z_gap| {fields['z_gap']} exceeds {Z_GAP_MAX:g}"
    return None


def check(argv: list[str], rc: int, out: str, vectors: dict) -> str | None:
    """None when the output of ``surprisemax <argv>`` is right, else why not."""
    if rc != 0:
        return f"exit code {rc}"
    command = argv[0]
    try:
        if command == "solve":
            return _check_solve(argv, out)
        if command == "eval":
            return _check_eval(argv, out, vectors)
        if command == "simulate":
            return _check_simulate(argv, out)
        if command == "verify":
            lines = out.splitlines()
            return None if lines and lines[-1].startswith("verify: PASS") else "no final verify: PASS line"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
    return f"no check for command {command!r}"
