"""Text serialization: spectrum files, scan tables, matrix exports.

Spectrum files are CSV matrices of complex literals (``re+imj``) with one
header row and one header column carrying the frequency axis::

    omega,1.0,1.5,2.0
    1.0,0+0j,0.70710678118654746+0j,0+0j
    1.5,-0.70710678118654746+0j,0+0j,0+0j
    2.0,0+0j,0+0j,0+0j

All numbers are written as ``%.17g`` writes them, so doubles survive a
text round trip.  CSV output uses LF line endings, a header row, and no
trailing commas; JSON output (:func:`write_json`) is indented by two spaces
and ends in a newline.  Everything is formatted in this process.  Spectrum
files are written one row at a time.  Matrix exports are written in blocks
of whole rows, as many as fit in ``_BLOCK_CELLS`` (2560) cells and at least
one, so the text and the arithmetic of at most one block are held.  A row
with at least half its cells in exponent form (below 1e-4 or from 1e17 on)
takes those cells' 17 digits from float64 arithmetic over all such rows of
its block, and every other row is one ``%`` of a format string; either way
each cell's bytes are those of :func:`format_float`.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import sys
from typing import Any, Iterator, Sequence

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
_PLUS_SIGN = re.compile(r"\+[+-]")
_CELL = 25  # ",-d.dddddddddddddddde-ddd": one byte per row of a cell table
_BLOCK_CELLS = 2560  # cells of a matrix export laid out per kernel call, in whole rows


def _high(a: np.ndarray) -> np.ndarray:
    """Veltkamp's high half of ``a``; ``a - _high(a)`` is exact."""
    c = a * _SPLIT
    c -= c - a
    return c


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
    hi1 = _high(hi)
    return np.stack([hi, lo, hi1, hi - hi1])


@functools.cache
def _ascii4() -> np.ndarray:
    """ASCII digits of 0..9999, one column each."""
    k = np.arange(10000)
    return (np.stack([k // 1000, k // 100 % 10, k // 10 % 10, k % 10]) + ord("0")).astype(np.uint8)


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``floor(x*10**(_S_MIN + k))`` as int64 and the fraction above it."""
    hi, lo, hi1, hi2 = _pow10()
    p = hi.take(k)
    p *= x
    xs = _high(x)
    # low = (((x1*hi1 - p) + x1*hi2 + x2*hi1) + x2*hi2) + x*lo, term by term,
    # for the halves x1 and x2 = x - x1 of x
    low = hi1.take(k)
    low *= xs
    low -= p
    d = p.astype(np.int64)
    t = p  # p is not needed again
    hi2.take(k, out=t, mode="clip")  # k is in range; "raise" would buffer
    t *= xs
    low += t
    np.subtract(x, xs, out=xs)  # from here xs holds x2
    for table, a in ((hi1, xs), (hi2, xs), (lo, x)):
        table.take(k, out=t, mode="clip")
        t *= a
        low += t
    del xs
    whole = np.floor(low, out=t)
    d += whole.astype(np.int64)
    return d, np.subtract(low, whole, out=low)


def _digits17(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """17-digit significands in [1e16, 1e17) and decimal exponents of
    ``1e-270 <= x < 1e290``, and the mask of cells whose rounding is certified."""
    # column k of _pow10 holds 10**(16 - e) for e = floor(log10 x)
    k = (16 - _S_MIN) - np.floor(np.log10(x)).astype(np.int64)
    d, frac = _scaled(x, k)
    out = (d < _E16) | (d >= _E17)
    if out.any():  # log10 fell on the other side of a power of ten
        k -= np.where(d < _E16, -1, out)
        del d, frac
        d, frac = _scaled(x, k)
        out = (d < _E16) | (d >= _E17)
    d += frac > 0.5
    frac -= 0.5
    ok = (np.abs(frac, out=frac) >= _TIE_MARGIN) & ~out
    carry = d == _E17
    d[carry] = _E16
    e = np.subtract(16 - _S_MIN, k, out=k)
    e += carry
    return d, e, ok


def _cell_table(block: np.ndarray, fast: np.ndarray) -> np.ndarray:
    """The text ``",%.17g"`` of each cell of ``block``, one NUL-padded cell per
    column of a ``(_CELL, *block.shape)`` table of ASCII bytes.

    The certified cells of ``fast``, in exponent form, are laid out from their
    digits; every other cell gets CPython's ``%.17g`` in one call.
    """
    # a cell stays in exponent form: no double below 1e-4 is within 5e-22 of
    # it, and every double below 1e17 is an integer of at most 17 digits
    d, e, ok = _digits17(np.where(fast, np.abs(block), 1.0).ravel())
    fast = fast.ravel() & ok
    ascii4 = _ascii4()
    cells = np.empty((_CELL, fast.size), np.uint8)
    cells[0] = ord(",")
    cells[1] = np.signbit(block).ravel()
    cells[1] *= ord("-")
    cells[20] = ord("e")
    cells[21] = ord("+")
    np.copyto(cells[21], ord("-"), where=e < 0)
    cells[22:] = ascii4[1:].take(np.abs(e, out=e), axis=1)
    cells[22] *= cells[22] != ord("0")
    q, r = e, np.empty_like(d)
    for k in range(16, 3, -4):  # rows 4..19 hold the digits after the point
        np.floor_divide(d, 10000, out=q)
        np.multiply(q, 10000, out=r)
        ascii4.take(np.subtract(d, r, out=r), axis=1, out=cells[k : k + 4], mode="clip")
        d, q = q, d
    cells[2] = d
    cells[2] += ord("0")
    del d, q, r, e
    fraction = cells[4:20]
    kept = fraction != ord("0")
    for shift in (1, 2, 4, 8):  # a digit is kept when a nonzero one follows
        kept[:-shift] |= kept[shift:]
    fraction *= kept
    cells[3] = kept[0]
    cells[3] *= ord(".")
    if not fast.all():
        rest = block.ravel()[~fast].tolist()
        text = (f"%-{_CELL - 1}.17g" * len(rest) % tuple(rest)).encode()
        padded = np.frombuffer(text, np.uint8).reshape(len(rest), _CELL - 1)
        cells[1:, ~fast] = np.where(padded == ord(" "), 0, padded).T
    return cells.reshape(_CELL, *block.shape)


def _exponent_rows(block: np.ndarray) -> Iterator[bytes | None]:
    """For each row of ``block``, ``",%.17g" * n % row`` as bytes if at least
    half its cells are in exponent form (below 1e-4 or from 1e17 on), else
    None: ``%`` is faster on the rest (mostly zeros, say).

    Those rows are laid out in one :func:`_cell_table`, whose bytes are cut
    into rows, and each row's NULs dropped, as the rows are asked for.
    """
    a = np.abs(block)
    fast = ((a >= 1e-270) & (a < 1e-4)) | ((a >= 1e17) & (a < 1e290))
    del a
    laid = 2 * np.count_nonzero(fast, axis=1) >= block.shape[1]
    if laid.any():
        keep = slice(None) if laid.all() else laid
        table = _cell_table(block[keep], fast[keep])
        # byte rows that are NUL in every cell (no sign, no third exponent
        # digit) are dropped, which leaves few NULs to drop from the text
        table = table[table.any(axis=(1, 2))]
        width = table.shape[0] * table.shape[2]
        text = table.transpose(1, 2, 0).tobytes()
        del table
    del fast
    start = 0
    for row_laid in laid.tolist():
        if row_laid:
            yield text[start : start + width].replace(b"\0", b"")
            start += width
        else:
            yield None


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


def _parse_rows(rows: Sequence[str], n: int, axis: np.ndarray, step: float) -> np.ndarray | None:
    """The cells of the data rows from one ``np.loadtxt``, or None if a row
    has the wrong cell count or row label, or a cell fails to parse or is not
    finite.  In an ASCII row, numpy's reader takes more than ``complex()``
    only by a sign after the plus of a real part (``1+-2j``) and by
    ``\\x1c``-``\\x1f`` as space; such rows are left out, and in the rest it
    takes a subset of what ``complex()`` takes, with the same values."""
    if not all(line.isascii() and line.count(",") == n and not _PLUS_SIGN.search(line)
               and not any(sep in line for sep in "\x1c\x1d\x1e\x1f") for line in rows):
        return None
    try:
        labels = np.array([float(line[: line.index(",")]) for line in rows])
        amp = np.loadtxt(rows, delimiter=",", dtype=np.complex128, comments=None,
                         usecols=range(1, n + 1), ndmin=2)
    except ValueError:
        return None
    if not (np.abs(labels - axis) <= REL_AXIS_TOL * step).all() or not np.isfinite(amp).all():
        return None
    return amp


def load_spectrum(path: str) -> BiphotonSpectrum:
    """Read a spectrum file written by :func:`save_spectrum`.

    Validates the shape (square, odd point count >= 3), the uniformity of
    the frequency axis, and agreement of the row labels with the header
    axis, both to ``REL_AXIS_TOL`` of the header spacing.  The cells are
    read by one ``np.loadtxt`` (:func:`_parse_rows`), with the values
    ``complex()`` gives them.  If that read fails for any reason, the rows
    are read again one by one with ``complex()``, which reports the first
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

    rows = lines[1:]
    amp = _parse_rows(rows, n, axis, steps[0])
    if amp is None:
        amp = np.empty((n, n), dtype=np.complex128)
        for i, line in enumerate(rows):
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
    matrix = np.asarray(matrix, np.float64)
    fmt = "%.17g" + ",%.17g" * matrix.shape[1] + "\n"
    step = max(1, _BLOCK_CELLS // matrix.shape[1])
    with open(path, "wb") as fh:
        fh.write((axis_label + "," + ",".join(format_float(x) for x in axis) + "\n").encode())
        for start in range(0, len(matrix), step):
            block = matrix[start : start + step]
            for label, row, cells in zip(axis[start : start + step].tolist(), block,
                                         _exponent_rows(block)):
                if cells is None:
                    fh.write((fmt % (label, *row.tolist())).encode())
                else:
                    fh.write(b"%.17g%b\n" % (label, cells))


def scan_rows_table(result, columns: Sequence[tuple[str, str]]) -> list[tuple[float, ...]]:
    """The values of the ``(header, attribute)`` columns, one tuple per row;
    a column that a row leaves at None is refused."""
    table = [tuple(getattr(row, attr) for _, attr in columns) for row in result.rows]
    for values in table:
        if None in values:
            header = columns[values.index(None)][0]
            raise ValueError(f"scan result has no values for column {header!r}")
    return table


def write_scan_csv(result, columns: Sequence[tuple[str, str]], path: str) -> None:
    table = scan_rows_table(result, columns)
    fmt = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header for header, _ in columns) + "\n")
        for values in table:
            fh.write(fmt % values)


def write_json(payload: dict[str, Any], path: str | None) -> None:
    """``payload`` as indented JSON and a final newline, to ``path`` or, for None, stdout."""
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def write_scan_json(result, columns: Sequence[tuple[str, str]], path: str) -> None:
    # the spec block holds every field of the spec, in order, but include_w_antisym
    spec = dataclasses.asdict(result.spec)
    del spec["include_w_antisym"]
    headers = [header for header, _ in columns]
    rows = [dict(zip(headers, values)) for values in scan_rows_table(result, columns)]
    write_json({"spec": spec, "rows": rows, "metadata": result.metadata}, path)
