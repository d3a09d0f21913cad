"""Spans around the package's public functions, and the per-layer metrics.

Wrappers go on the module attributes where callers look the names up (for
example ``cli.rollout`` and ``oracles.rollout`` both record ``solver.rollout``)
and on ``SplitMix64`` methods.  They are installed only for the traced replay
and removed afterwards.  A name the package no longer has is skipped, so its
metrics read 0 rather than the benchmark failing.

Spans are kept in flat arrays in memory and saved when the run ends.  Very hot
leaf functions get a call counter instead of a span.
"""

from __future__ import annotations

import contextlib
import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

import numpy as np


def _days(m, *args, **kwargs):
    return m


def _length(p, *args, **kwargs):
    return len(p)


def _horizon(gamma, *args, **kwargs):
    return gamma.m


def _grid_points(m, spec, *args, **kwargs):
    return math.comb(spec.resolution + m - 1, m - 1)


def _batch(rng, n):
    return n


def _size_of(size, args, kwargs) -> float:
    # A call shape the size function does not know records 0, not a failure.
    try:
        return float(size(*args, **kwargs)) if size else 0.0
    except (TypeError, AttributeError, IndexError, ValueError):
        return 0.0


def _converged(report):
    return bool(getattr(report, "converged", False))


# (module, attribute, layer, size of the call, flag read from the result)
SPANS = (
    ("cli", "main", "cli.main", None, None),
    ("cli", "load_distribution", "cli.load_distribution", None, None),
    ("cli", "rollout", "solver.rollout", _days, None),
    ("oracles", "rollout", "solver.rollout", _days, None),
    ("solver", "gamma_sequence", "solver.gamma_sequence", _days, None),
    ("solver", "objective_values", "objective.objective_values", _length, None),
    ("cli", "objective_values", "objective.objective_values", _length, None),
    ("cli", "tail_masses", "objective.tail_masses", _length, None),
    ("cli", "ascent_optimize", "oracles.ascent_optimize", _days, _converged),
    ("cli", "gradient_sm2", "objective.gradient_sm2", _length, None),
    ("oracles", "gradient_sm2", "objective.gradient_sm2", _length, None),
    ("cli", "grid_search", "oracles.grid_search", _grid_points, None),
    ("oracles", "eval_sm2_batch", "objective.eval_sm2_batch", None, None),
    ("cli", "telescope_residual", "solver.telescope_residual", _horizon, None),
    ("cli", "stationarity_residual", "solver.stationarity_residual", None, None),
    ("cli", "estimate_expected_surprise", "simulate.estimate_expected_surprise", _length, None),
    ("rng.SplitMix64", "doubles", "rng.doubles", _batch, None),
)

# (module, attribute, layer): called thousands of times per request, counted only
COUNTERS = (
    ("simulate", "realized_surprise", "objective.realized_surprise"),
    ("rng.SplitMix64", "next_double", "rng.next_double"),
)

# Per-layer metrics: name -> (unit, better).  Counts and times are per traced
# request; each ratio is listed after the count it is taken over.
PER_LAYER = {
    "solver.rollout.calls": ("count/req", "lower"),
    "solver.rollout.busy_s": ("s/req", "lower"),
    "solver.rollout.self_s": ("s/req", "lower"),
    "solver.rollout.m_exponent": ("exponent", "lower"),
    "solver.gamma_sequence.busy_s": ("s/req", "lower"),
    "cli.main.self_s": ("s/req", "lower"),
    "cli.load_distribution.busy_s": ("s/req", "lower"),
    "cli.stdout_bytes": ("B/req", "lower"),
    "objective.objective_values.busy_s": ("s/req", "lower"),
    "objective.tail_masses.busy_s": ("s/req", "lower"),
    "oracles.ascent_optimize.calls": ("count/req", "lower"),
    "oracles.ascent_optimize.busy_s": ("s/req", "lower"),
    "oracles.ascent_optimize.self_s": ("s/req", "lower"),
    "oracles.ascent_optimize.converged_ratio": ("ratio", "higher"),
    "objective.gradient_sm2.calls": ("count/req", "lower"),
    "objective.gradient_sm2.busy_s": ("s/req", "lower"),
    "oracles.ascent.iterations": ("count/req", "lower"),
    "oracles.grid_search.busy_s": ("s/req", "lower"),
    "oracles.grid_search.points": ("count/req", "lower"),
    "objective.eval_sm2_batch.busy_s": ("s/req", "lower"),
    "solver.telescope_residual.calls": ("count/req", "lower"),
    "solver.telescope_residual.busy_s": ("s/req", "lower"),
    "solver.telescope_residual.m_exponent": ("exponent", "lower"),
    "solver.stationarity_residual.busy_s": ("s/req", "lower"),
    "simulate.estimate_expected_surprise.calls": ("count/req", "lower"),
    "simulate.estimate_expected_surprise.busy_s": ("s/req", "lower"),
    "simulate.estimate_expected_surprise.self_s": ("s/req", "lower"),
    "simulate.estimate_expected_surprise.m_exponent": ("exponent", "lower"),
    "simulate.estimate_expected_surprise.days": ("count/req", "lower"),
    "objective.realized_surprise.calls": ("count/req", "lower"),
    "objective.realized_surprise.per_day": ("ratio", "lower"),
    "simulate.samples_per_s": ("1/s", "higher"),
    "rng.doubles.calls": ("count/req", "lower"),
    "rng.doubles.busy_s": ("s/req", "lower"),
    "rng.doubles.values": ("count/req", "lower"),
    "rng.next_double.calls": ("count/req", "lower"),
    "trace.requests": ("count", "higher"),
    "trace.ops_per_s_ratio": ("ratio", "higher"),
}


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"surprisemax.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records one span per wrapped call: layer, start, end, parent, request, size."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("d")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list[int] = []

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def span(self, fn, layer, size=None, flag=None):
        lid = self._layer_id(layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            i = len(self.name)
            self.name.append(lid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.size.append(_size_of(size, args, kwargs))
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[i] = t0
                self.end[i] = t1
            if flag and flag(result):
                self.counts[f"{layer}.flagged"] += 1
            return result

        return wrapper

    def counter(self, fn, layer):
        counts = self.counts
        key = f"{layer}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in SPANS and COUNTERS; restore the originals on exit."""
        undo = []

        def patch(module, attr, wrap):
            owner = _owner(module)
            fn = getattr(owner, attr, None)
            if fn is not None:
                undo.append((owner, attr, fn))
                setattr(owner, attr, wrap(fn))

        try:
            for module, attr, layer, size, flag in SPANS:
                patch(module, attr, lambda fn: self.span(fn, layer, size, flag))
            for module, attr, layer in COUNTERS:
                patch(module, attr, lambda fn: self.counter(fn, layer))
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layers": np.array(self.layers),
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "request": np.frombuffer(self.request, dtype=np.int32),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "size": np.frombuffer(self.size),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())


def _exponent(busy: np.ndarray, m: np.ndarray, covariate: np.ndarray | None = None) -> float:
    """Slope of log(busy) against log(m), optionally also regressing on log(covariate)."""
    keep = (busy > 0) & (m > 0)
    if np.unique(m[keep]).size < 3:
        return 0.0
    cols = [np.ones(int(keep.sum())), np.log(m[keep])]
    if covariate is not None:
        cols.append(np.log(covariate[keep]))
    coef = np.linalg.lstsq(np.column_stack(cols), np.log(busy[keep]), rcond=None)[0]
    return float(coef[1])


def layer_metrics(tracer: Tracer, requests: int, stdout_bytes: int, ops_ratio: float) -> dict:
    """Per-layer metrics of a traced replay of ``requests`` requests."""
    a = tracer.arrays()
    name, parent, request, size = a["name"], a["parent"], a["request"], a["size"]
    dur = a["end"] - a["start"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
    own = dur - child

    def select(layer: str) -> np.ndarray:
        lid = tracer.layers.index(layer) if layer in tracer.layers else -1
        return name == lid

    def per_request(layer: str, values: np.ndarray | None = None) -> float:
        sel = select(layer)
        return float(sel.sum() if values is None else values[sel].sum()) / requests

    def under(ancestor: str) -> np.ndarray:
        # Each pass marks one more generation of descendants.
        up = np.where(has_parent, parent, np.arange(name.size))
        mask = select(ancestor)
        while not np.array_equal(grown := mask | mask[up], mask):
            mask = grown
        return mask

    def per_horizon(layer: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Busy time summed per (request, horizon), with the horizon and request."""
        sel = select(layer)
        keys, inverse = np.unique(np.stack([request[sel], size[sel]]), axis=1, return_inverse=True)
        return np.bincount(inverse.ravel(), weights=dur[sel]), keys[1], keys[0]

    c = tracer.counts
    ascent_calls = per_request("oracles.ascent_optimize") * requests
    rs_days = per_request("simulate.estimate_expected_surprise", size)
    sim_busy = per_request("simulate.estimate_expected_surprise", dur)
    draws = per_request("rng.doubles", size)

    sim_busy_h, sim_m, sim_req = per_horizon("simulate.estimate_expected_surprise")
    doubles = select("rng.doubles")
    drawn = np.bincount(request[doubles], weights=size[doubles], minlength=requests)
    gradient = select("objective.gradient_sm2")
    values = {
        "solver.rollout.calls": per_request("solver.rollout"),
        "solver.rollout.busy_s": per_request("solver.rollout", dur),
        "solver.rollout.self_s": per_request("solver.rollout", own),
        "solver.rollout.m_exponent": _exponent(*per_horizon("solver.rollout")[:2]),
        "solver.gamma_sequence.busy_s": per_request("solver.gamma_sequence", dur),
        "cli.main.self_s": per_request("cli.main", own),
        "cli.load_distribution.busy_s": per_request("cli.load_distribution", dur),
        "cli.stdout_bytes": stdout_bytes / requests,
        "objective.objective_values.busy_s": per_request("objective.objective_values", dur),
        "objective.tail_masses.busy_s": per_request("objective.tail_masses", dur),
        "oracles.ascent_optimize.calls": ascent_calls / requests,
        "oracles.ascent_optimize.busy_s": per_request("oracles.ascent_optimize", dur),
        "oracles.ascent_optimize.self_s": per_request("oracles.ascent_optimize", own),
        "oracles.ascent_optimize.converged_ratio": (
            c["oracles.ascent_optimize.flagged"] / ascent_calls if ascent_calls else 0.0
        ),
        "objective.gradient_sm2.calls": per_request("objective.gradient_sm2"),
        "objective.gradient_sm2.busy_s": per_request("objective.gradient_sm2", dur),
        "oracles.ascent.iterations": float((gradient & under("oracles.ascent_optimize")).sum()) / requests,
        "oracles.grid_search.busy_s": per_request("oracles.grid_search", dur),
        "oracles.grid_search.points": per_request("oracles.grid_search", size),
        "objective.eval_sm2_batch.busy_s": per_request("objective.eval_sm2_batch", dur),
        "solver.telescope_residual.calls": per_request("solver.telescope_residual"),
        "solver.telescope_residual.busy_s": per_request("solver.telescope_residual", dur),
        "solver.telescope_residual.m_exponent": _exponent(*per_horizon("solver.telescope_residual")[:2]),
        "solver.stationarity_residual.busy_s": per_request("solver.stationarity_residual", dur),
        "simulate.estimate_expected_surprise.calls": per_request("simulate.estimate_expected_surprise"),
        "simulate.estimate_expected_surprise.busy_s": sim_busy,
        "simulate.estimate_expected_surprise.self_s": per_request("simulate.estimate_expected_surprise", own),
        "simulate.estimate_expected_surprise.m_exponent": _exponent(
            sim_busy_h, sim_m, drawn[sim_req.astype(np.int64)]
        ),
        "simulate.estimate_expected_surprise.days": rs_days,
        "objective.realized_surprise.calls": c["objective.realized_surprise.calls"] / requests,
        "objective.realized_surprise.per_day": (
            c["objective.realized_surprise.calls"] / requests / rs_days if rs_days else 0.0
        ),
        "simulate.samples_per_s": draws / sim_busy if sim_busy else 0.0,
        "rng.doubles.calls": per_request("rng.doubles"),
        "rng.doubles.busy_s": per_request("rng.doubles", dur),
        "rng.doubles.values": draws,
        "rng.next_double.calls": c["rng.next_double.calls"] / requests,
        "trace.requests": float(requests),
        "trace.ops_per_s_ratio": ops_ratio,
    }
    return {key: {"value": values[key], "unit": unit} for key, (unit, _) in PER_LAYER.items()}
