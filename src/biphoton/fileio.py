"""Text serialization: spectrum files, scan tables, matrix exports.

Spectrum files are CSV matrices of complex literals (``re+imj``) with one
header row and one header column carrying the frequency axis::

    omega,1.0,1.5,2.0
    1.0,0+0j,0.70710678118654746+0j,0+0j
    1.5,-0.70710678118654746+0j,0+0j,0+0j
    2.0,0+0j,0+0j,0+0j

All numbers are written as ``%.17g`` writes them, so doubles survive a
text round trip.  CSV output uses LF line endings, a header row, and no
trailing commas.  Spectrum files and matrix exports are formatted in this
process one row at a time, so the text of at most one row is held.  A row
of a matrix export with at least half its cells in exponent form (below
1e-4 or from 1e17 on) takes those cells' 17 digits from float64 arithmetic
over the whole row, and every other row is one ``%`` of a format string;
either way each cell's bytes are those of :func:`format_float`.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Any, Sequence

import numpy as np

from .errors import SpectrumFileError
from .spectrum import REL_AXIS_TOL, BiphotonSpectrum, make_grid


def format_float(x: float) -> str:
    return f"{x:.17g}"


# Exponent-form cells from float64 arithmetic (Dekker, Numer. Math. 18, 224
# (1971)).  For 1e-270 <= |x| < 1e290 and e = floor(log10|x|), |x|*10**(16 - e)
# is formed as p + low: Dekker's exact product of |x| with the high part of a
# double-double 10**s, plus |x| times its low part.  The computed low is within
# about 2**-47 of the exact one, so the 17-digit integer D = round(p + low) is
# certified when the fraction of low lies at least 2**-30 from 1/2; exact ties
# and every other cell are left to CPython's %.17g.
_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into two 26-bit halves
_S_MIN, _S_MAX = -275, 288  # 10**(16 - e) for e one off either end of the range
_E16, _E17 = 10**16, 10**17
_TIE_MARGIN = 2.0**-30
_CELL = 25  # ",-d.dddddddddddddddde-ddd": one byte per row of a cell table


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _pow10() -> np.ndarray:
    """Rows ``hi, lo`` and the halves of ``hi``: ``hi + lo = 10**s`` for s from
    ``_S_MIN`` to ``_S_MAX``, each part correctly rounded from Python integers."""
    parts = []
    for s in range(_S_MIN, _S_MAX + 1):
        num, den = (10**s, 1) if s >= 0 else (1, 10**-s)
        hi_num, hi_den = (num / den).as_integer_ratio()
        parts.append((num / den, (num * hi_den - hi_num * den) / (den * hi_den)))
    hi, lo = np.array(parts).T
    return np.stack([hi, lo, *_split(hi)])


@functools.cache
def _ascii4() -> np.ndarray:
    """ASCII digits of 0..9999, one column each."""
    k = np.arange(10000)
    return (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10]) + ord("0")).astype(np.uint8)


def _scaled(x: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``floor(x*10**(16 - e))`` as int64 and the fraction above it."""
    hi, lo, hi1, hi2 = _pow10().take(16 - _S_MIN - e, axis=1)
    p = x * hi
    x1, x2 = _split(x)
    low = (((x1 * hi1 - p) + x1 * hi2 + x2 * hi1) + x2 * hi2) + x * lo
    whole = np.floor(low)
    return p.astype(np.int64) + whole.astype(np.int64), low - whole


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands in [1e16, 1e17) and decimal exponents of
    ``1e-270 <= x < 1e290``, and the mask of cells whose rounding is certified."""
    e = np.floor(np.log10(x)).astype(np.int64)
    d, frac = _scaled(x, e)
    out = (d < _E16) | (d >= _E17)
    if out.any():  # log10 fell on the other side of a power of ten
        e += np.where(d < _E16, -1, out)
        d, frac = _scaled(x, e)
        out = (d < _E16) | (d >= _E17)
    ok = (np.abs(frac - 0.5) >= _TIE_MARGIN) & ~out
    d += frac > 0.5
    carry = d == _E17
    return np.where(carry, _E16, d), e + carry, ok


def _exponent_row(row: np.ndarray) -> str | None:
    """``",%.17g" * n % row`` for a row with at least half its cells in exponent
    form, else None: ``%`` is faster on the rest (mostly zeros, say).

    The certified exponent-form cells are laid out from their digits, one
    cell per column of a NUL-padded table that is compressed to the row's
    bytes; every other cell gets CPython's ``%.17g`` in one call for the row.
    """
    if 2 * np.count_nonzero(row) < row.size:  # a zero is never in exponent form
        return None
    a = np.abs(row)
    fast = ((a >= 1e-270) & (a < 1e-4)) | ((a >= 1e17) & (a < 1e290))
    if 2 * np.count_nonzero(fast) < row.size:
        return None
    # a cell stays in exponent form: no double below 1e-4 is within 5e-22 of
    # it, and every double below 1e17 is an integer of at most 17 digits
    d, e, ok = _digits17(np.where(fast, a, 1.0))
    fast &= ok
    ascii4 = _ascii4()
    cells = np.empty((_CELL, row.size), np.uint8)
    cells[0] = ord(",")
    cells[1] = np.signbit(row) * ord("-")
    for k in range(16, 3, -4):  # rows 4..19 hold the digits after the point
        d, r = np.divmod(d, 10000)
        cells[k : k + 4] = ascii4.take(r, axis=1)
    cells[2] = d + ord("0")
    fraction = cells[4:20]
    kept = fraction != ord("0")
    for shift in (1, 2, 4, 8):  # a digit is kept when a nonzero one follows
        kept[:-shift] |= kept[shift:]
    fraction *= kept
    cells[3] = kept[0] * ord(".")
    cells[20] = ord("e")
    cells[21] = np.where(e < 0, ord("-"), ord("+"))
    cells[22:] = ascii4[1:].take(np.abs(e), axis=1)
    cells[22] *= cells[22] != ord("0")
    if not fast.all():
        rest = row[~fast].tolist()
        text = (f"%-{_CELL - 1}.17g" * len(rest) % tuple(rest)).encode()
        padded = np.frombuffer(text, np.uint8).reshape(len(rest), _CELL - 1)
        cells[1:, ~fast] = np.where(padded == ord(" "), 0, padded).T
    # rows that are NUL in every cell (no sign, no third exponent digit) are dropped
    cells = cells[cells.any(axis=1)]
    return cells.T.tobytes().replace(b"\0", b"").decode()


def save_spectrum(s: BiphotonSpectrum, path: str) -> None:
    """Write the complex amplitude matrix with frequency axis headers."""
    w = s.grid.frequencies()
    fmt = "%.17g" + ",%.17g%+.17gj" * s.grid.n_points + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("omega," + ",".join(format_float(x) for x in w) + "\n")
        for label, row in zip(w.tolist(), s.amplitudes.view(np.float64)):
            fh.write(fmt % (label, *row.tolist()))


def _parse_float(token: str, line: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SpectrumFileError(f"expected a number, got {token!r}", line, column) from None
    if not math.isfinite(value):
        raise SpectrumFileError(f"non-finite value {token!r}", line, column)
    return value


def _parse_complex(token: str, line: int, column: int) -> complex:
    try:
        value = complex(token)
    except ValueError:
        raise SpectrumFileError(
            f"expected a complex literal like '1.5-0.25j', got {token!r}", line, column
        ) from None
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise SpectrumFileError(f"non-finite value {token!r}", line, column)
    return value


def load_spectrum(path: str) -> BiphotonSpectrum:
    """Read a spectrum file written by :func:`save_spectrum`.

    Validates the shape (square, odd point count >= 3), the uniformity of
    the frequency axis, and agreement of the row labels with the header
    axis, both to ``REL_AXIS_TOL`` of the header spacing; reports the first
    offending cell by line and column.
    """
    with open(path, "r") as fh:
        numbered = [(k, line.rstrip("\n").rstrip("\r")) for k, line in enumerate(fh, start=1)]
    # blank lines are skipped, but errors name the line of the file
    numbered = [(k, line) for k, line in numbered if line.strip() != ""]
    if not numbered:
        raise SpectrumFileError("empty spectrum file")
    linenos, lines = zip(*numbered)

    top = linenos[0]
    header = lines[0].split(",")
    if len(header) < 4:
        raise SpectrumFileError("header must carry at least 3 frequency values", top, 1)
    axis = np.array(
        [_parse_float(tok, top, col + 2) for col, tok in enumerate(header[1:])], dtype=float
    )
    n = axis.size
    if n % 2 == 0 or n < 3:
        raise SpectrumFileError(f"odd point count required, header has {n} frequencies", top, 2)

    steps = np.diff(axis)
    if steps[0] <= 0 or np.any(np.abs(steps - steps[0]) > REL_AXIS_TOL * abs(steps[0])):
        raise SpectrumFileError("frequency axis must be uniformly increasing", top, 2)

    if len(lines) != n + 1:
        bad_line = linenos[-1] + 1 if len(lines) < n + 1 else linenos[n + 1]
        raise SpectrumFileError(
            f"expected {n} data rows to match the header, found {len(lines) - 1}",
            bad_line,
            1,
        )

    amp = np.empty((n, n), dtype=np.complex128)
    for i, line in enumerate(lines[1:]):
        lineno = linenos[i + 1]
        tokens = line.split(",")
        if len(tokens) != n + 1:
            raise SpectrumFileError(
                f"expected {n + 1} cells, found {len(tokens)}", lineno, len(tokens) + 1
            )
        label = _parse_float(tokens[0], lineno, 1)
        if abs(label - axis[i]) > REL_AXIS_TOL * steps[0]:
            raise SpectrumFileError(
                f"row label {tokens[0]!r} does not match header frequency {float(axis[i])!r}",
                lineno,
                1,
            )
        # one parse of the whole row; a row that fails it, or holds a
        # non-finite value, is parsed again cell by cell to name the cell
        try:
            amp[i] = list(map(complex, tokens[1:]))
        except ValueError:
            parsed = False
        else:
            parsed = bool(np.isfinite(amp[i]).all())
        if not parsed:
            for j, tok in enumerate(tokens[1:]):
                amp[i, j] = _parse_complex(tok, lineno, j + 2)

    mid = (n - 1) // 2
    grid = make_grid(center=float(axis[mid]), half_span=float(axis[-1] - axis[0]) / 2.0, n_points=n)
    return BiphotonSpectrum._normalized(grid, amp)


def save_magnitude_matrix(
    axis_label: str, axis: np.ndarray, matrix: np.ndarray, path: str
) -> None:
    """Write ``|matrix|`` style real data with axis headers (plot-ready)."""
    fmt = "%.17g" + ",%.17g" * matrix.shape[1] + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(axis_label + "," + ",".join(format_float(x) for x in axis) + "\n")
        for label, row in zip(axis.tolist(), np.asarray(matrix, np.float64)):
            cells = _exponent_row(row)
            if cells is None:
                fh.write(fmt % (label, *row.tolist()))
            else:
                fh.write(format_float(label) + cells + "\n")


def scan_rows_table(result, columns: Sequence[tuple[str, str]]) -> list[dict[str, float]]:
    """Rows as ordered dicts of the requested ``(header, attribute)`` columns."""
    table = []
    for row in result.rows:
        entry = {}
        for header, attr in columns:
            value = getattr(row, attr)
            if value is None:
                raise ValueError(f"scan result has no values for column {header!r}")
            entry[header] = value
        table.append(entry)
    return table


def write_scan_csv(result, columns: Sequence[tuple[str, str]], path: str) -> None:
    table = scan_rows_table(result, columns)
    headers = [header for header, _ in columns]
    fmt = ",".join(["%.17g"] * len(headers)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for entry in table:
            fh.write(fmt % tuple(entry[h] for h in headers))


def _spec_as_dict(spec) -> dict[str, Any]:
    return {
        "model": spec.model,
        "swept": spec.swept,
        "start": spec.start,
        "stop": spec.stop,
        "n_steps": spec.n_steps,
        "fixed": dict(spec.fixed),
        "grid_points": spec.grid_points,
        "grid_span_sigmas": spec.grid_span_sigmas,
    }


def write_scan_json(result, columns: Sequence[tuple[str, str]], path: str) -> None:
    payload = {
        "spec": _spec_as_dict(result.spec),
        "rows": scan_rows_table(result, columns),
        "metadata": result.metadata,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
