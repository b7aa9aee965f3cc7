"""Reference implementations that the tests check the library against.

Each helper is written from its definition, elementwise and over the whole
matrix, with no slab or reduction shortcut: the exchange swap, the split
into renormalized exchange-symmetric and -antisymmetric parts, sampling a
function on the grid, and the squared norm of a spectrum.  The diagonal
sums of a factored state run over the whole triangle, by the slab loop
that the library cuts to the pump's support, or replaces by anti-diagonal
sums for a narrow pump.  The row kernel of a sweep reads each row off the
reduction on its own, with one complex exponential per diagonal, where the
library takes all rows in one blocked pass.  A single scan row is row 0 of
a two-row scan that starts at it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, NamedTuple

import numpy as np

import biphoton as bp
from biphoton.scans import _delayed_state, model_params
from biphoton.spectrum import (
    _MIN_NORM,
    _SWEEP_CANCELLATION,
    _ZERO_WEIGHT,
    _factored_sums,
    _FactoredState,
    _matrix_sums,
    _plane_waves,
    _squared_pump,
    _weight,
)


class SymmetryDecomposition(NamedTuple):
    """Exchange-symmetric and -antisymmetric parts with the antisymmetric weight."""

    sym: bp.BiphotonSpectrum | None
    antisym: bp.BiphotonSpectrum | None
    w_antisym: float


def from_function(
    grid: bp.FrequencyGrid,
    f: Callable[[np.ndarray, np.ndarray], np.ndarray | complex],
) -> bp.BiphotonSpectrum:
    """Sample ``f(omega_1, omega_2)`` on the grid and normalize.

    ``f`` receives broadcastable frequency arrays ``(w1[i, j], w2[i, j])``
    and may return a scalar or an array.
    """
    w = grid.frequencies()
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    raw = np.asarray(f(w1, w2), dtype=np.complex128)
    if raw.ndim == 0:
        raw = np.full((grid.n_points, grid.n_points), complex(raw), dtype=np.complex128)
    else:
        raw = np.broadcast_to(raw, (grid.n_points, grid.n_points)).copy()
    return bp.BiphotonSpectrum.from_array(grid, raw)


def swap(s: bp.BiphotonSpectrum) -> bp.BiphotonSpectrum:
    """Exchange the two frequency arguments: ``c'[i, j] = c[j, i]``."""
    amp = np.ascontiguousarray(s.amplitudes.T)
    amp.flags.writeable = False
    return bp.BiphotonSpectrum(s.grid, amp, s.warnings)


def symmetry_decompose(s: bp.BiphotonSpectrum) -> SymmetryDecomposition:
    """Split into exchange-symmetric and -antisymmetric parts.

    The unnormalized parts are ``a_pm = (c +- c^T) / 2``; they are orthogonal,
    so their squared norms add to 1.  Each nonzero part is returned
    renormalized; a part at or below the library's zero weight is returned
    as ``None``, and an absent antisymmetric part has weight 0.
    """
    c = s.amplitudes
    a_plus = (c + c.T) / 2.0
    a_minus = (c - c.T) / 2.0
    w_minus = float(np.sum(np.abs(a_minus) ** 2))
    w_plus = float(np.sum(np.abs(a_plus) ** 2))

    sym = None
    antisym = None
    if w_plus > _ZERO_WEIGHT:
        sym = bp.BiphotonSpectrum.from_array(s.grid, a_plus)
    if w_minus > _ZERO_WEIGHT:
        antisym = bp.BiphotonSpectrum.from_array(s.grid, a_minus)
    w_antisym = 0.0 if antisym is None else min(max(w_minus, 0.0), 1.0)
    return SymmetryDecomposition(sym=sym, antisym=antisym, w_antisym=w_antisym)


def norm_squared(s: bp.BiphotonSpectrum) -> float:
    """``sum |c|**2`` of the amplitude matrix."""
    return float(np.sum(np.abs(s.amplitudes) ** 2))


def delayed_state(model: str, row: dict, grid_points: int, span: float):
    """The state of one row with its path delays, as the scans build it; the
    model parameters that ``row`` leaves out take their defaults, and its
    ``dz`` is the row's delay."""
    fixed = {key: value for key, value in row.items() if key != "dz"}
    delay = {key: value for key, value in row.items() if key == "dz"}
    return _delayed_state(model, {**model_params(model, fixed), **delay}, grid_points, span)


def delayed_spectrum(model: str, row: dict, grid_points: int, span: float) -> bp.BiphotonSpectrum:
    """The state of one row's parameters with its path delays, built as a matrix."""
    state = delayed_state(model, row, grid_points, span)
    return state.spectrum() if isinstance(state, _FactoredState) else state


def scan_point(spec: bp.ScanSpec, value: float) -> bp.ScanRow:
    """The row of ``spec`` at swept ``value`` on its own: row 0 of a two-row
    scan from ``value`` to the next float up, so it raises as that row would."""
    stop = float(np.nextafter(value, math.inf))
    return bp.run_scan(dataclasses.replace(spec, start=value, stop=stop, n_steps=2)).rows[0]


def factored_diagonal_sums(f: _FactoredState) -> np.ndarray:
    """``T_k = sum_i P[2i+k] u_i conj(u_{i+k})`` for ``k = 1..n-1``, unscaled, over every cell.

    ``u = conj(x) y`` and ``P = p**2`` (ones for a flat pump).  Slabs of ``k``
    take the row sums of a product of strided views of O(n) vectors, whose
    row ``k - k0`` holds ``conj(u_{i+k}) P[2i+k]`` for every ``i < n - k0``;
    zeros padded to ``conj(u)`` and ``P`` end each diagonal.  No n x n array
    is made, so it runs on the largest grid.
    """
    n = f.grid.n_points
    p = np.ones(2 * n - 1) if f.pump is None else f.pump * f.pump
    u = np.conj(f.x) * f.y
    size = 32
    conj_u = np.zeros(n + size, dtype=np.complex128)
    conj_u[:n] = np.conj(u)
    pump = np.zeros(2 * n + size)
    pump[: 2 * n - 1] = p
    block = np.empty((size, n), dtype=np.complex128)
    strided = np.lib.stride_tricks.as_strided
    t = np.zeros(n - 1, dtype=np.complex128)
    for k0 in range(1, n, size):
        m, width = min(size, n - k0), n - k0
        g = block[:m, :width]
        diagonals = strided(conj_u[k0:], (m, width), (16, 16))
        np.multiply(diagonals, strided(pump[k0:], (m, width), (8, 16)), out=g)
        g *= u[:width]
        t[k0 - 1 : k0 - 1 + m] = g.sum(axis=1)
    return t


def exchange_sweep_row(
    s: bp.BiphotonSpectrum | _FactoredState, min_norm_squared: float = _MIN_NORM**2
) -> Callable[[complex, complex, float], float]:
    """``w(a, b, tau)`` of :func:`biphoton.spectrum.exchange_sweep`, one row per call.

    Each row takes ``e^{ik theta}`` for ``k = 1..n-1`` (``-(n-1)..n-1`` for a
    second wave) from its own complex exponentials and sums
    ``sum_k T_k (|a|^2 (1 - e^{ik theta}) + |b|^2 (1 - e^{-ik theta}))`` and
    ``sum_i r_i e^{-2i tau nu_i} - sum_m S_m e^{-i theta (m-n+1)}`` directly.
    """
    producer = _factored_sums if isinstance(s, _FactoredState) else _matrix_sums
    r, v, t, antidiag, scaled = producer(s)
    n = s.grid.n_points
    one_hot = isinstance(s, _FactoredState) and np.count_nonzero(_squared_pump(s)) == 1
    d = math.fsum(r - v)
    r_total = float(np.sum(r))
    q = np.arange(-(n - 1), n, dtype=float)

    def check(norm_sq: float) -> None:
        if norm_sq < min_norm_squared:
            raise bp.DegenerateSpectrumError(
                "degenerate spectrum: path-difference modulation annihilates the sampled support"
            )

    def reduced(a: complex, b: complex, tau: float) -> float:
        sym, anti = scaled(_plane_waves(s.grid, a, b, tau))
        check(sym + anti)
        return _weight(anti / (sym + anti))

    def weight(a: complex, b: complex, tau: float) -> float:
        if one_hot:
            return reduced(a, b, tau)
        a2, b2 = abs(a) ** 2, abs(b) ** 2
        p = np.exp((q if b else q[n:]) * (1j * tau * s.grid.spacing))
        e = p[-(n - 1) :]
        waves = a2 * (1.0 - e)
        norm_sq, pair = (a2 + b2) * r_total, 0.0
        if b:
            rw = complex(np.sum(r * p.real[::2]), -np.sum(r * p.imag[::2]))
            norm_sq += 2.0 * (np.conj(a) * b * rw).real
            if min_norm_squared <= norm_sq < (a2 + b2) * r_total / _SWEEP_CANCELLATION:
                return reduced(a, b, tau)
            waves += b2 * (1.0 - np.conj(e))
            pair = np.conj(a) * b * (rw - np.sum(antidiag * np.conj(p)))
        check(norm_sq)
        twice = (a2 + b2) * d + 2.0 * float(np.sum((t * waves).real)) + 2.0 * float(np.real(pair))
        return float(_weight(0.5 * twice / norm_sq))

    return weight
