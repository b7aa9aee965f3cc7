"""Text serialization: spectrum files, scan tables, matrix exports.

Spectrum files are CSV matrices of complex literals (``re+imj``) with one
header row and one header column carrying the frequency axis::

    omega,1.0,1.5,2.0
    1.0,0+0j,0.70710678118654746+0j,0+0j
    1.5,-0.70710678118654746+0j,0+0j,0+0j
    2.0,0+0j,0+0j,0+0j

All numbers are written with 17 significant digits so doubles survive a
text round trip.  CSV output uses LF line endings, a header row, and no
trailing commas.  Spectrum files and matrix exports of at least
``_SPLIT_MIN_CELLS`` numbers are formatted by two processes where the
platform can fork and two CPUs are usable: a forked child formats the second
half of the rows while this process formats the first.  The bytes are the
same as those of the one-process path.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import shutil
import signal
import tempfile
from typing import Any, Sequence

import numpy as np

from .errors import SpectrumFileError
from .spectrum import REL_AXIS_TOL, BiphotonSpectrum, make_grid


def format_float(x: float) -> str:
    return f"{x:.17g}"


# Exports of fewer numbers are formatted in one process.  The split breaks
# even near 1e4 numbers (n ~ 100 for a magnitude matrix, 2 cores): the fork
# and the copy of the child's rows cost about what it saves there.  At n=129
# (16,641 numbers) it takes 0.83-0.87 of the one-process time, at n=513 0.6.
_SPLIT_MIN_CELLS = 1 << 14
# the child's rows are copied through a buffer this small, so the copy adds
# nothing to the parent's peak memory beyond what formatting a row takes
_COPY_CHUNK = 16 * 1024


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_rows(write, fmt: str, labels: np.ndarray, matrix: np.ndarray) -> None:
    for label, row in zip(labels.tolist(), matrix):
        write(fmt % (label, *row.tolist()))


def _write_rows(fh, fmt: str, labels: np.ndarray, matrix: np.ndarray) -> None:
    """Write ``fmt % (label, *row)`` for every row of the real ``matrix``.

    One row at a time, so no text copy of the matrix is held.  A large
    matrix is split: a forked child formats rows ``[h, n)`` into an unnamed
    file beside the output while this process streams rows ``[0, h)``, then
    appends the child's file.  If no child can be forked or the child fails,
    its rows are formatted here, so errors and bytes are those of the
    one-process loop.
    """
    tmp = None
    if hasattr(os, "fork") and matrix.size >= _SPLIT_MIN_CELLS and _usable_cpus() >= 2:
        with contextlib.suppress(OSError):  # no file for the child: one process writes
            tmp = tempfile.TemporaryFile(
                "w+", dir=os.path.dirname(os.path.abspath(fh.name)), newline="\n"
            )
    if tmp is None:
        _format_rows(fh.write, fmt, labels, matrix)
        return
    h = (len(matrix) + 1) // 2
    with tmp:
        pid = status = None
        try:
            with contextlib.suppress(OSError):  # no process to spare
                pid = os.fork()
            if pid == 0:
                gc.disable()  # finalizers of inherited garbage could flush its buffers
                _format_rows(tmp.write, fmt, labels[h:], matrix[h:])
                tmp.flush()
                status = 0
            else:
                _format_rows(fh.write, fmt, labels[:h], matrix[:h])
                if pid is not None:
                    status = os.waitpid(pid, 0)[1]
        finally:
            if pid == 0:
                # the child touches no stdio and no BLAS, and leaves only
                # here: it never returns into the caller's stack and never
                # flushes the buffers it inherited
                os._exit(0 if status == 0 else 1)
            if pid is not None and status is None:  # this process failed first
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        if status == 0:
            fh.flush()
            tmp.seek(0)
            shutil.copyfileobj(tmp.buffer, fh.buffer, _COPY_CHUNK)
        else:
            _format_rows(fh.write, fmt, labels[h:], matrix[h:])


def save_spectrum(s: BiphotonSpectrum, path: str) -> None:
    """Write the complex amplitude matrix with frequency axis headers."""
    w = s.grid.frequencies()
    fmt = "%.17g" + ",%.17g%+.17gj" * s.grid.n_points + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("omega," + ",".join(format_float(x) for x in w) + "\n")
        _write_rows(fh, fmt, w, s.amplitudes.view(np.float64))


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
        _write_rows(fh, fmt, axis, matrix)


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
        "evaluation": list(spec.resolved_evaluation()),
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
