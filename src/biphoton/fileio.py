"""Text serialization: spectrum files, scan tables, matrix exports.

Spectrum files are CSV matrices of complex literals (``re+imj``) with one
header row and one header column carrying the frequency axis::

    omega,1.0,1.5,2.0
    1.0,0+0j,0.70710678118654746+0j,0+0j
    1.5,-0.70710678118654746+0j,0+0j,0+0j
    2.0,0+0j,0+0j,0+0j

All numbers are written with 17 significant digits so doubles survive a
text round trip.  CSV output uses LF line endings, a header row, and no
trailing commas.
"""

from __future__ import annotations

import json
import math
from typing import Any, Sequence

import numpy as np

from .errors import SpectrumFileError
from .spectrum import BiphotonSpectrum, make_grid

_REL_AXIS_TOL = 1e-9


def format_float(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def save_spectrum(s: BiphotonSpectrum, path: str) -> None:
    """Write the complex amplitude matrix with frequency axis headers."""
    w = s.grid.frequencies()
    with open(path, "w", newline="\n") as fh:
        fh.write("omega," + ",".join(format_float(x) for x in w) + "\n")
        for i in range(s.grid.n_points):
            row = ",".join(format_complex(z) for z in s.amplitudes[i])
            fh.write(format_float(w[i]) + "," + row + "\n")


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
    axis; reports the first offending cell by line and column.
    """
    with open(path, "r") as fh:
        lines = [line.rstrip("\n").rstrip("\r") for line in fh]
    lines = [line for line in lines if line.strip() != ""]
    if not lines:
        raise SpectrumFileError("empty spectrum file")

    header = lines[0].split(",")
    if len(header) < 4:
        raise SpectrumFileError("header must carry at least 3 frequency values", 1, 1)
    axis = np.array(
        [_parse_float(tok, 1, col + 2) for col, tok in enumerate(header[1:])], dtype=float
    )
    n = axis.size
    if n % 2 == 0 or n < 3:
        raise SpectrumFileError(f"odd point count required, header has {n} frequencies", 1, 2)

    steps = np.diff(axis)
    if steps[0] <= 0 or np.any(np.abs(steps - steps[0]) > _REL_AXIS_TOL * abs(steps[0])):
        raise SpectrumFileError("frequency axis must be uniformly increasing", 1, 2)

    if len(lines) != n + 1:
        bad_line = len(lines) + 1 if len(lines) < n + 1 else n + 2
        raise SpectrumFileError(
            f"expected {n} data rows to match the header, found {len(lines) - 1}",
            bad_line,
            1,
        )

    amp = np.empty((n, n), dtype=np.complex128)
    scale = max(abs(axis[0]), abs(axis[-1]), 1.0)
    for i, line in enumerate(lines[1:]):
        lineno = i + 2
        tokens = line.split(",")
        if len(tokens) != n + 1:
            raise SpectrumFileError(
                f"expected {n + 1} cells, found {len(tokens)}", lineno, len(tokens) + 1
            )
        label = _parse_float(tokens[0], lineno, 1)
        if abs(label - axis[i]) > _REL_AXIS_TOL * scale:
            raise SpectrumFileError(
                f"row label {tokens[0]!r} does not match header frequency {axis[i]!r}",
                lineno,
                1,
            )
        for j, tok in enumerate(tokens[1:]):
            amp[i, j] = _parse_complex(tok, lineno, j + 2)

    mid = (n - 1) // 2
    grid = make_grid(center=float(axis[mid]), half_span=float(axis[-1] - axis[0]) / 2.0, n_points=n)
    return BiphotonSpectrum.from_array(grid, amp)


def save_magnitude_matrix(
    axis_label: str, axis: np.ndarray, matrix: np.ndarray, path: str
) -> None:
    """Write ``|matrix|`` style real data with axis headers (plot-ready)."""
    with open(path, "w", newline="\n") as fh:
        fh.write(axis_label + "," + ",".join(format_float(x) for x in axis) + "\n")
        # one row at a time: a labelled copy of the matrix would double its memory
        for label, row in zip(axis, matrix):
            fh.write(format_float(label) + ",")
            np.savetxt(fh, row[None, :], fmt="%.17g", delimiter=",")


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
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(headers) + "\n")
        for entry in table:
            fh.write(",".join(format_float(entry[h]) for h in headers) + "\n")


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
