"""Command-line front end.

Subcommands: ``solve``, ``eval``, ``verify``, ``simulate``, ``table``.
Results go to stdout, diagnostics to stderr, and identical invocations
produce identical bytes.  Exit codes: 0 success, 1 usage error,
2 verification mismatch, 3 input parse error.

Floats are rendered as the shortest decimal string that parses back to the
same binary64 value, with a bare integer form for whole numbers, so ``1.0``
prints as ``1``: ``format_float`` is ``repr`` without a trailing ``.0``.
Columns of finite values are rendered a run at a time by ``_floattext``,
which computes the same digits (Schubfach's shortest round-trip decimal)
with NumPy integer arithmetic, so a column prints byte for byte what
``format_float`` prints.

No Python call is made per row.  Each entry's text sits in a fixed-width
field of bytes, zero where it has no character: the 52-byte rows of
``_floattext.entries`` (``_padded``), the kept 24-byte gamma and hazard
fields of ``_SequenceText``, and the day numbers of
``_floattext.integers``.  Every run of up to ``_CHUNK`` rows, CSV or JSON,
places its fields and separator bytes side by side in one byte array, and
one ``bytearray.translate`` drops the zeros (``_laid_out``).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .objective import as_probability_vector, gradient_sm2, objective_values, tail_masses
from .oracles import GridSpec, ascent_optimize, grid_search
from .oracles import _check_grid_points, _check_tolerance
from .rng import _check_seed
from .simulate import SimulationConfig, estimate_expected_surprise
from .solver import SolveResult, _stationarity, _telescope_residuals, rollout

__all__ = ["main", "format_float", "format_floats"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_PARSE = 3


def format_float(x: float) -> str:
    """Shortest round-trip decimal, whole numbers without the trailing .0"""
    text = repr(float(x))
    if text.endswith(".0"):
        return text[:-2]
    return text


def format_floats(values) -> list[str]:
    """``format_float`` of every entry of a 0-D or 1-D array, in one pass."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim > 1:
        raise ValueError(f"expected a one-dimensional vector, got {values.ndim} dimensions")
    text = "".join(_json_list(values.ravel()))
    return text.split(", ") if text else []


class _UsageError(Exception):
    pass


class _ParseFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags by default; the contract here says 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# input parsing

def _plain(kind):
    """The argparse type that reads ``kind(text)`` of text ``_is_plain_number`` accepts."""

    def read(text: str):
        if _is_plain_number(text):
            try:
                return kind(text)
            except ValueError:
                pass
        # argparse's own words for a value that ``kind`` refuses
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}")

    return read


# the type of every integer flag, and of --tol
_integer = _plain(int)
_real = _plain(float)


def _parse_single_days(text: str) -> int:
    try:
        m = _integer(text)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"invalid --days value {text!r}, expected an integer")
    if m < 1:
        raise _UsageError(f"--days must be at least 1, got {m}")
    return m


def _parse_days_span(text: str) -> tuple[int, int]:
    """Either a single integer or an inclusive span like ``2..8``."""
    if ".." in text:
        first, _, last = text.partition("..")
        try:
            lo, hi = _integer(first), _integer(last)
        except argparse.ArgumentTypeError:
            raise _UsageError(f"invalid --days span {text!r}, expected like 2..8")
    else:
        lo = hi = _parse_single_days(text)
    if lo < 1:
        raise _UsageError(f"--days must start at 1 or later, got {lo}")
    if hi < lo:
        raise _UsageError(f"--days span {text!r} is empty")
    return lo, hi


def _flag_value(check, value, flag: str):
    """``check(value, flag)``; its ``ValueError``, which names ``flag``, is a usage error."""
    try:
        return check(value, flag)
    except ValueError as exc:
        raise _UsageError(str(exc))


def _checked(flag: str, make, *args):
    """``make(*args)``, its ``ValueError`` reported as a usage error naming ``flag``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _UsageError(f"{flag}: {exc}")


def _parse_floats(path: str, items, screened: bool, numbered, accepts, message: str):
    """``float`` of every item in one C-level pass, tried only if ``screened``.

    Otherwise, or if the pass fails, the ``(number, item)`` pairs of
    ``numbered`` are walked, and the first item that ``accepts`` rejects or
    ``float`` cannot convert is named by ``message``.
    """
    if screened:
        try:
            return list(map(float, items))
        except (ValueError, TypeError, OverflowError):
            pass
    values = []
    for number, item in numbered:
        try:
            if not accepts(item):
                raise ValueError
            values.append(float(item))
        except (ValueError, OverflowError):
            raise _ParseFailure(f"{path}: " + message.format(number, item))
    return values


def _is_plain_number(text: str) -> bool:
    # ASCII without "_": float() also takes digit separators and non-ASCII digits.
    return text.isascii() and "_" not in text


def load_distribution(path: str) -> np.ndarray:
    """Read a schedule from a JSON array or a one-number-per-line file.

    The format is sniffed from the first non-whitespace byte: ``[`` or
    ``{`` means JSON, and JSON that is not an array is refused.  ``-``
    reads stdin.  Any failure raises with the offending line or element
    named.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        raise _ParseFailure(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        # read() decodes the whole input at once, so ``start`` counts from its first byte
        raise _ParseFailure(f"{path}: not UTF-8 at byte offset {exc.start}: {exc.reason}")
    stripped = text.strip()
    if not stripped:
        raise _ParseFailure(f"{path}: empty input")
    if stripped.startswith(("[", "{")):
        try:
            data = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise _ParseFailure(
                f"{path}: invalid JSON: {exc.msg} (line {exc.lineno} column {exc.colno})"
            )
        except (ValueError, RecursionError) as exc:
            # an integer literal longer than the interpreter converts, or
            # arrays nested deeper than the decoder recurses
            raise _ParseFailure(f"{path}: invalid JSON: {exc}")
        if not isinstance(data, list):
            raise _ParseFailure(f"{path}: expected a JSON array of numbers")
        values = _parse_floats(
            path,
            data,
            set(map(type, data)) <= {float, int},
            enumerate(data, 1),
            lambda item: type(item) in (float, int),
            "element {} is not a number: {!r}",
        )
    else:
        lines = list(map(str.strip, text.splitlines()))
        values = _parse_floats(
            path,
            filter(None, lines),
            _is_plain_number(text),
            ((n, line) for n, line in enumerate(lines, 1) if line),
            _is_plain_number,
            "line {}: not a number: {!r}",
        )
    try:
        return as_probability_vector(values)
    except ValueError as exc:
        raise _ParseFailure(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# rendering

# Long columns are rendered this many entries at a time, so no full column
# of text is ever held at once.  Runs are counted from the column's end,
# short run first, so the kept days are a whole number of runs.
_CHUNK = 4096
# Runs of the gamma and hazard text kept per process: 2^16 days.
_KEPT_RUNS = 16
# the longest text of a float64, as in -2.2250738585072014e-308
_FIELD_BYTES = 24


def _chunks(n: int):
    return ((max(0, hi - _CHUNK), hi) for hi in range(n % _CHUNK or _CHUNK, n + 1, _CHUNK))


def _left_aligned(texts: list[str]) -> np.ndarray:
    """Each text at the start of a row of ``_FIELD_BYTES`` bytes, zero after it."""
    return np.array(texts, dtype=f"S{_FIELD_BYTES}").view(np.uint8).reshape(-1, _FIELD_BYTES)


def _padded(values) -> np.ndarray:
    """The text of each entry of a 1-D array in a row of bytes, zero where it has no character.

    A run of finite values is laid out by ``_floattext.entries``, imported on
    first use, so the subcommands that print scalars alone never build its
    tables; any other run is ``format_float`` of each entry, left-aligned.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size and np.isfinite(values).all():
        from ._floattext import entries

        return entries(values)
    return _left_aligned([format_float(x) for x in values.tolist()])


def _fresh(values: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """The rows of entries ``lo..hi`` of ``values``, rendered for this call."""
    return _padded(values[lo:hi])


def _day_digits(lo: int, hi: int) -> np.ndarray:
    """The days ``lo + 1 .. hi`` in decimal, right-aligned in rows of bytes, zero before them."""
    from ._floattext import integers

    return integers(lo + 1, hi)


def _laid_out(n: int, blocks: list) -> str:
    """The text of ``n`` rows, each the rows of ``blocks`` side by side, zero bytes dropped.

    A block is an ``(n, width)`` ``uint8`` array, zero where it has no
    character, or ``bytes`` put in every row.  The list is emptied once its
    blocks are placed, so fields made for this call alone are freed before
    the text is made: one ``translate`` of the whole run.
    """
    blocks[:] = [np.frombuffer(b, dtype=np.uint8) if isinstance(b, bytes) else b for b in blocks]
    ends = np.cumsum([block.shape[-1] for block in blocks]).tolist()
    buffer = bytearray(n * ends[-1])
    rows = np.frombuffer(buffer, dtype=np.uint8).reshape(n, ends[-1])
    for block, end in zip(blocks, ends):
        rows[:, end - block.shape[-1] : end] = block
    del rows, block
    blocks.clear()
    text = buffer.translate(None, b"\0")
    del buffer
    return text.decode("ascii")


class _SequenceText:
    """Rendered text of one column of the solver's shared backward sequence.

    Each entry's text is kept at the start of a row of ``_FIELD_BYTES``
    bytes, zero after it, in the solver's descending order of days left
    ``k``, so any run of days of any horizon is a slice of rows.  The rows
    grow lazily to the days asked for, up to ``_KEPT_RUNS`` runs, rendered from
    the asking horizon's own column in ``_CHUNK``-entry pieces; a run that
    reaches further back is rendered on each use.  A growth copies the 24 B
    of each stored day, far less than the rendering of the horizon that asks
    for it.
    """

    def __init__(self):
        # read and rebound whole like the solver's sequence
        self._fields = np.zeros((0, _FIELD_BYTES), dtype=np.uint8)

    def fields(self, values: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The rows of entries ``lo..hi`` of ``values``, this column of one horizon."""
        m = values.size
        if m - lo > _KEPT_RUNS * _CHUNK:
            return _padded(values[lo:hi])
        fields = self._fields
        stored = len(fields)
        if stored < m - lo:
            new = values[lo : m - stored]
            pieces = [_left_aligned(format_floats(new[a:b])) for a, b in _chunks(new.size)]
            fields = self._fields = np.concatenate([*pieces, fields])
            stored = m - lo
        # day i (from 0) has k = m-1-i days left, row stored-m+i
        return fields[lo + stored - m : hi + stored - m]


_GAMMA_TEXT = _SequenceText()
_HAZARD_TEXT = _SequenceText()


def _json_list(values: np.ndarray, fields=_fresh):
    """The entries of a JSON number array, without the brackets, in pieces.

    ``fields(values, lo, hi)`` gives the rows of entries ``lo..hi``.
    """
    for lo, hi in _chunks(values.size):
        text = _laid_out(hi - lo, [fields(values, lo, hi), b", "])
        # no separator after the last entry
        yield text if hi < values.size else text[:-2]


def _csv_field_lines(name: str, values: np.ndarray):
    """``name_j,value`` lines of a ``field,value`` CSV, ``j`` from 1."""
    prefix = f"{name}_".encode("ascii")
    for lo, hi in _chunks(values.size):
        yield _laid_out(hi - lo, [prefix, _day_digits(lo, hi), b",", _padded(values[lo:hi]), b"\n"])


def _render_fields(fields, fmt: str, end: str = "\n"):
    """Pieces of a ``field,value`` CSV or of a JSON object and ``end``.

    Each field is ``(key, value)``.  A value is rendered scalar text, an
    array (``key_j,value`` lines in CSV, a list in JSON) or, in JSON only, a
    nested field list or the pieces of a list from ``_json_list``.
    """
    if fmt == "csv":
        yield "field,value\n"
        for key, value in fields:
            if isinstance(value, np.ndarray):
                yield from _csv_field_lines(key, value)
            else:
                yield f"{key},{value}\n"
        return
    sep = "{"
    for key, value in fields:
        yield f'{sep}"{key}": '
        if isinstance(value, np.ndarray):
            value = _json_list(value)
        if isinstance(value, list):
            yield from _render_fields(value, fmt, "")
        elif isinstance(value, str):
            yield value
        else:
            yield "["
            yield from value
            yield "]"
        sep = ", "
    yield "}" + end


def _objective_fields(obj) -> list[tuple[str, str]]:
    return [
        ("sm1", format_float(obj.sm1)),
        ("sm2", format_float(obj.sm2)),
        ("expected_surprise", format_float(obj.expected_surprise)),
    ]


def _render_solve_csv(result: SolveResult):
    policy = result.policy
    yield "j,gamma,hazard,p,remaining_before\n"
    for lo, hi in _chunks(policy.m):
        yield _laid_out(
            hi - lo,
            [
                _day_digits(lo, hi), b",",
                _GAMMA_TEXT.fields(policy.gamma, lo, hi), b",",
                _HAZARD_TEXT.fields(policy.hazard, lo, hi), b",",
                _padded(policy.allocations[lo:hi]), b",",
                _padded(policy.remaining_before[lo:hi]), b"\n",
            ],
        )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_solve(args) -> int:
    # One horizon is a one-value span; checked first, so spans are refused.
    _parse_single_days(args.days)
    return _cmd_table(args)


def _cmd_table(args) -> int:
    lo, hi = _parse_days_span(args.days)
    for m in range(lo, hi + 1):
        result = rollout(m)
        if args.format == "csv":
            if m > lo:
                # blank line between per-horizon tables
                sys.stdout.write("\n")
            sys.stdout.writelines(_render_solve_csv(result))
        else:
            fields = [
                ("m", str(result.m)),
                ("gamma0", format_float(result.gamma[0])),
                ("gamma", _json_list(result.policy.gamma, _GAMMA_TEXT.fields)),
                ("p", result.p),
                ("objective", _objective_fields(result.objective)),
                ("value_at_root", format_float(result.value_at_root)),
            ]
            sys.stdout.writelines(_render_fields(fields, "json"))
    return EXIT_OK


def _cmd_eval(args) -> int:
    v = load_distribution(args.input)
    objective = _objective_fields(objective_values(v))
    arrays = [("p", v), ("tail", tail_masses(v))]
    if args.format == "csv":
        fields = [("m", str(v.size)), *objective, *arrays]
    else:
        fields = [("m", str(v.size)), *arrays, ("objective", objective)]
    sys.stdout.writelines(_render_fields(fields, args.format))
    return EXIT_OK


def _cmd_simulate(args) -> int:
    m = _parse_single_days(args.days)
    seed = _flag_value(_check_seed, args.seed, "--seed")
    config = _checked("--samples", SimulationConfig, args.samples, seed)
    result = rollout(m)
    sim = estimate_expected_surprise(result.p, config)
    analytic = result.gamma[0] - 1.0
    z_gap = (sim.mean - analytic) / sim.std_error if sim.std_error > 0.0 else 0.0
    fields = [
        ("m", str(m)),
        ("samples", str(sim.samples)),
        ("seed", str(sim.seed)),
        ("mean", format_float(sim.mean)),
        ("std_error", format_float(sim.std_error)),
        ("analytic", format_float(analytic)),
        ("z_gap", format_float(z_gap)),
    ]
    sys.stdout.writelines(_render_fields(fields, args.format))
    return EXIT_OK


# residuals are checked at these remaining-mass levels
_VERIFY_MASSES = (0.1, 0.5, 1.0)
_OBJECTIVE_TOL = 1e-10
_RESIDUAL_TOL = 1e-12
_SPREAD_TOL = 1e-9
# the horizons the grid scan runs at, with their default resolutions
_GRID_RESOLUTIONS = {2: 10_000, 3: 1_000}


def _verify_checks(m: int, seed: int, tol: float, grid: GridSpec | None):
    """``(label, gap, tol)`` of each check of horizon ``m``, computed as it is reached.

    ``grid``, if given, replaces the default grid of the scan.
    """
    result = rollout(m)
    report = ascent_optimize(m, seed, tol)
    yield "ascent-linf", report.linf_gap, tol
    yield "ascent-objective", abs(report.best_value - result.value_at_root), _OBJECTIVE_TOL
    if m in _GRID_RESOLUTIONS:
        spec = grid or GridSpec(_GRID_RESOLUTIONS[m])
        found = grid_search(m, spec)
        yield f"grid-linf N={spec.resolution}", found.linf_gap, found.tolerance
    if m >= 2:
        masses = np.array(_VERIFY_MASSES)[:, None]
        residuals = _stationarity(result.policy.gamma[:-1], result.policy.hazard[:-1], masses)
        yield "stationarity", float(np.abs(residuals).max()), _RESIDUAL_TOL
    yield "telescope", float(np.abs(_telescope_residuals(result.gamma)).max()), _RESIDUAL_TOL * m
    gradient = gradient_sm2(result.p)
    yield "gradient-spread", float(gradient.max() - gradient.min()), _SPREAD_TOL


def _cmd_verify(args) -> int:
    lo, hi = _parse_days_span(args.days)
    seed = _flag_value(_check_seed, args.seed, "--seed")
    _flag_value(_check_tolerance, args.tol, "--tol")
    grid = None if args.grid is None else _checked("--grid", GridSpec, args.grid)
    for m in _GRID_RESOLUTIONS:
        if grid is not None and lo <= m <= hi:
            _checked("--grid", _check_grid_points, m, grid.resolution)

    lines: list[str] = []
    max_ascent_gap = 0.0
    checks = (
        (m, check) for m in range(lo, hi + 1) for check in _verify_checks(m, seed, args.tol, grid)
    )
    for m, (label, gap, tol) in checks:
        ok = gap <= tol
        lines.append(
            f"m={m} {label} gap={format_float(gap)} tol={format_float(tol)} "
            + ("ok" if ok else "FAIL")
        )
        if not ok:
            lines.append(f"verify: FAIL first failure m={m} {label}")
            break
        if label == "ascent-linf":
            max_ascent_gap = max(max_ascent_gap, gap)
    else:
        lines.append(
            f"verify: PASS days={lo}..{hi} max_ascent_gap={format_float(max_ascent_gap)}"
        )
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# wiring

def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="surprisemax", description="Surprise-maximizing schedules.")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    solve = sub.add_parser("solve", help="closed-form schedule for one horizon")
    solve.add_argument("--days", required=True, help="number of days, at least 1")
    solve.add_argument("--format", choices=("csv", "json"), default="json")
    solve.set_defaults(func=_cmd_solve)

    table = sub.add_parser("table", help="solve over a span of horizons")
    table.add_argument("--days", required=True, help="single value or span like 1..8")
    table.add_argument("--format", choices=("csv", "json"), default="json")
    table.set_defaults(func=_cmd_table)

    ev = sub.add_parser("eval", help="score a schedule read from a file")
    ev.add_argument("--input", required=True, help="JSON array or one number per line; - for stdin")
    ev.add_argument("--format", choices=("csv", "json"), default="json")
    ev.set_defaults(func=_cmd_eval)

    verify = sub.add_parser("verify", help="check the closed form against the oracles")
    verify.add_argument("--days", required=True, help="single value or span like 2..8")
    verify.add_argument("--grid", type=_integer, default=None, help="override grid resolution")
    verify.add_argument("--tol", type=_real, default=1e-6, help="ascent agreement tolerance")
    verify.add_argument("--seed", type=_integer, default=0, help="ascent restart seed")
    verify.set_defaults(func=_cmd_verify)

    simulate = sub.add_parser("simulate", help="Monte Carlo check of the expected surprise")
    simulate.add_argument("--days", required=True, help="number of days, at least 1")
    simulate.add_argument("--samples", type=_integer, default=1_000_000)
    simulate.add_argument("--seed", type=_integer, default=0)
    simulate.add_argument("--format", choices=("csv", "json"), default="json")
    simulate.set_defaults(func=_cmd_simulate)

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"surprisemax: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ParseFailure as exc:
        print(f"surprisemax: error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
