"""One workload in one fresh process: a single client in a closed loop.

Each request is one in-process ``surprisemax.cli.main(argv)`` call with
stdout captured, so it covers argument parsing, the library and rendering.
The next request starts only after the previous one returned and its output
was checked; checking is outside the timed region.  ``run.py`` starts this
script with ``src`` on ``PYTHONPATH`` and BLAS pinned to one thread.

    worker.py --probe --workload W --seed N
        Times a fresh interpreter from the import of surprisemax.cli to the
        end of the workload's first request.
    worker.py --workload W --seed N --seconds S --trace 0|1 --workdir D --outdir O
        First pass: whole blocks of requests, each output checked, until
        their summed wall time reaches S (S/3 with --trace 1) and there are
        at least 100.  With --trace 0 that pass gives the metrics.  With
        --trace 1 the same requests run once more untraced and once under
        the tracer, and the per-layer metrics are reported, with the
        tracer's cost as the ratio of the two.  A rerun must print the same
        bytes as the first pass.

Every timed request is bracketed by calls of the reference kernel in
``calibrate.py``, and its wall time is scaled by the reference time over the
mean of the two kernel times, so that a host whose speed drifts gives steady
figures.  The raw wall times are reported beside the scaled ones.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time

import check
import workloads

# The traced run splits its time between the first pass, an untraced replay
# and the traced replay.
TRACED_PHASES = 3
# At least ten requests lie beyond the 90th percentile.
MIN_REQUESTS = 100


def call(cli, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def timed_call(cli, argv: list[str]) -> tuple[float, int | None, str]:
    """One request: (seconds, exit code, stdout).  A crash gives exit code None."""
    t0 = time.perf_counter()
    try:
        rc, out = call(cli, argv)
    except Exception as exc:  # a crash fails this request, not the run
        rc, out = None, f"raised {exc!r}"
    return time.perf_counter() - t0, rc, out


class Clock:
    """Times requests between reference-kernel calls.

    ``time`` returns the request's wall time and its scaled time: the wall
    time times ``calibrate.REFERENCE_S`` over the mean of the kernel times
    just before and just after the request.
    """

    def __init__(self) -> None:
        import calibrate  # imports NumPy; see probe()

        self.calibrate = calibrate
        self.kernel_s = calibrate.kernel_seconds()
        self.kernel_times: list[float] = []

    def time(self, cli, argv: list[str]) -> tuple[float, float, int | None, str]:
        elapsed, rc, out = timed_call(cli, argv)
        before, self.kernel_s = self.kernel_s, self.calibrate.kernel_seconds()
        self.kernel_times.append(self.kernel_s)
        scale = self.calibrate.REFERENCE_S / (0.5 * (before + self.kernel_s))
        return elapsed, elapsed * scale, rc, out


def _digest(rc, out: str) -> str:
    return hashlib.sha256(f"{rc}\n{out}".encode()).hexdigest()


def _import_cli():
    import surprisemax.cli as cli

    src = os.path.join(os.getcwd(), "src")
    if os.path.commonpath([os.path.abspath(cli.__file__), src]) != src:
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    return cli


def probe(workload: str, seed: int) -> dict:
    """Set-up time of a fresh interpreter, raw and scaled.

    The kernel is imported and run only after the timed region, because it
    imports NumPy and that import is part of set-up.  Its first call warms it;
    the scale comes from the median of the next three.
    """
    argv = workloads.first_request(workload, seed)
    t0 = time.perf_counter()
    cli = _import_cli()
    rc, out = call(cli, argv)
    elapsed = time.perf_counter() - t0
    error = check.check(argv, rc, out, {})
    import calibrate

    calibrate.kernel_seconds()
    kernel_s = statistics.median(calibrate.kernel_seconds() for _ in range(3))
    return {
        "setup_s": elapsed * calibrate.REFERENCE_S / kernel_s,
        "setup_wall_s": elapsed,
        "error": error and f"surprisemax {' '.join(argv)}: {error}",
    }


def _latency_metrics(times: list[float]) -> dict:
    """Throughput and latency percentiles of one pass of request times."""
    return {
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": 1e3 * statistics.median(times),
        "latency_p90_ms": 1e3 * statistics.quantiles(times, n=10)[-1],
    }


def run(workload: str, seed: int, seconds: float, traced: bool, workdir: str, outdir: str) -> dict:
    cli = _import_cli()
    pairs, vectors = workloads.write_eval_files(workload, seed, workdir)
    failures = []

    def record(argv, error):
        if error is not None:
            failures.append(f"surprisemax {' '.join(argv)}: {error}")

    # Warm-up: the first request, checked but not timed.
    first = workloads.first_request(workload, seed)
    _, rc, out = timed_call(cli, first)
    record(first, check.check(first, rc, out, vectors))

    # First pass: whole blocks, every output checked.  The wall time sets how
    # many requests run; the scaled time is what is reported.
    clock = Clock()
    budget = seconds / TRACED_PHASES if traced else seconds
    requests, digests, walls, scaled, out_bytes = [], [], [], [], []
    b = 0
    while sum(walls) < budget or len(requests) < MIN_REQUESTS:
        for argv in workloads.block(workload, seed, b, pairs):
            wall, scaled_s, rc, out = clock.time(cli, argv)
            record(argv, check.check(argv, rc, out, vectors))
            requests.append(argv)
            digests.append(_digest(rc, out))
            walls.append(wall)
            scaled.append(scaled_s)
            out_bytes.append(len(out.encode()))
        b += 1
    attempted = 1 + len(requests)

    def replay(why: str, tracer=None) -> tuple[list[float], list[float]]:
        """Rerun the first pass's requests; each must print the same bytes.

        Returns the wall and the scaled time of every request.
        """
        times = ([], [])
        for i, (argv, digest) in enumerate(zip(requests, digests)):
            if tracer is not None:
                tracer.request_id = i
            wall, scaled_s, rc, out = clock.time(cli, argv)
            times[0].append(wall)
            times[1].append(scaled_s)
            if _digest(rc, out) != digest:
                record(argv, f"stdout differs from the first pass ({why})")
        return times

    if traced:
        import spans

        untraced_times = replay("repeat")[1]
        tracer = spans.Tracer()
        with tracer.installed():
            traced_times = replay("traced", tracer)[1]
        os.makedirs(outdir, exist_ok=True)
        tracer.save(os.path.join(outdir, f"trace-{workload}-seed{seed}.npz"))
        result = {"layers": spans.layer_metrics(
            tracer, len(requests), sum(out_bytes), sum(untraced_times) / sum(traced_times)
        )}
        attempted += 2 * len(requests)
    else:
        result = {
            **_latency_metrics(scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "wall": _latency_metrics(walls),
            "kernel_ms": 1e3 * statistics.median(clock.kernel_times),
        }
    result.update(
        requests=len(requests),
        numpy=sys.modules["numpy"].__version__,
        attempted=attempted,
        failed=len(failures),
        failures=failures[:5],
    )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    parser.add_argument("--outdir")
    args = parser.parse_args()
    if args.probe:
        result = probe(args.workload, args.seed)
    else:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, args.outdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
