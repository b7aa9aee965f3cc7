"""Discretized two-photon spectral amplitudes.

A two-photon state over two input ports is represented by a complex matrix
``c[i, j]`` on a shared uniform angular-frequency grid, the coefficient of
one photon at ``omega_i`` in port 1 and one at ``omega_j`` in port 2.  The
matrix absorbs the grid spacing, so every continuous spectral integral
becomes an exact finite sum and ``sum |c|**2 == 1`` carries the probability
interpretation directly.

All types are immutable value objects; every operation returns a new value.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError

# Norm drift allowed on already-normalized spectra (pure-phase and
# transpose operations preserve the norm to machine precision).
NORM_TOL = 1e-12

# Squared weight below which a symmetry component counts as absent.
_ZERO_WEIGHT = 1e-30

# Norm below which a raw amplitude matrix counts as zero.
_MIN_NORM = 1e-150

# Relative error allowed in a grid frequency: the float spacing at the grid's
# outermost frequency must stay below this fraction of the grid spacing.
# Spectrum files read their frequency axes to the same tolerance.
REL_AXIS_TOL = 1e-9

# Largest accepted n x n complex128 matrix (256 MiB, n <= 4095).  Model
# builders and kernels hold several such matrices at once, so a grid past
# this size is refused before any array is made.
MAX_MATRIX_BYTES = 2**28


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform discretization of a 1D angular-frequency axis.

    The point count must be odd so the center frequency is itself a grid
    point and the offsets ``nu = omega - center`` come in exact ``+nu/-nu``
    pairs (required for spectra supported on the anti-diagonal
    ``nu_2 = -nu_1``).

    Parameters
    ----------
    center : float
        Center angular frequency (rad/s in SI mode, dimensionless in
        natural units).
    half_span : float
        Positive frequency extent on each side of the center.
    n_points : int
        Odd number of grid points, at least 3 and at most 4095 (see
        ``MAX_MATRIX_BYTES``).

    Envelopes and phases are built from the offsets and the scalar center, so any
    finite center is accepted; only :meth:`frequencies`, for frequency-axis writers,
    refuses one whose floats lie more than ``REL_AXIS_TOL`` of the spacing apart.
    """

    center: float
    half_span: float
    n_points: int

    def __post_init__(self):
        if not isinstance(self.n_points, int):
            raise ValueError("n_points must be an integer")
        if self.n_points < 3 or self.n_points % 2 == 0:
            raise ValueError(
                f"odd point count required: n_points must be odd and >= 3, got {self.n_points}"
            )
        matrix_bytes = 16 * self.n_points**2
        if matrix_bytes > MAX_MATRIX_BYTES:
            raise ConfigError(
                f"{self.n_points} grid points need {matrix_bytes / 2**20:.0f} MiB per "
                f"{self.n_points}x{self.n_points} complex matrix, above the "
                f"{MAX_MATRIX_BYTES / 2**20:.0f} MiB limit"
            )
        if not (math.isfinite(self.half_span) and self.half_span > 0):
            raise ValueError(f"half_span must be positive and finite, got {self.half_span}")
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")

    @property
    def spacing(self) -> float:
        # the bits of 2 * half_span / (n - 1), without its overflow past 9e307
        return self.half_span / self.center_index

    @property
    def center_index(self) -> int:
        return (self.n_points - 1) // 2

    def offsets(self) -> np.ndarray:
        """Offsets ``nu_k = omega_k - center``, exactly mirror-symmetric."""
        k = np.arange(self.n_points) - self.center_index
        out = k * self.spacing
        out.flags.writeable = False
        return out

    def frequencies(self) -> np.ndarray:
        """Grid frequencies ``omega_k = center + nu_k``, where floats resolve them."""
        reach = abs(self.center) + self.half_span
        if math.ulp(reach) > REL_AXIS_TOL * self.spacing:
            raise ConfigError(
                f"grid center {self.center!r} cannot be resolved: floats near {reach:g} lie "
                f"{math.ulp(reach):g} apart, over {REL_AXIS_TOL:g} of the spacing {self.spacing:g}"
            )
        out = self.center + self.offsets()
        out.flags.writeable = False
        return out


def make_grid(center: float, half_span: float, n_points: int) -> FrequencyGrid:
    """Build a :class:`FrequencyGrid`; rejects even point counts."""
    return FrequencyGrid(center=center, half_span=half_span, n_points=n_points)


@dataclass(frozen=True, eq=False)
class BiphotonSpectrum:
    """Unit-norm complex amplitude matrix over ``grid x grid``.

    ``amplitudes[i, j]`` is the coefficient of the two-photon component
    with port-1 frequency ``omega_i`` and port-2 frequency ``omega_j``.
    Instances hold ``sum |c|**2 == 1`` (within 1e-12) and only finite
    entries; construct through :meth:`from_array` or the model builders,
    which normalize.

    ``warnings`` carries non-fatal construction diagnostics, e.g. grid
    truncation notices from the model builders.
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        amp = self.amplitudes
        n = self.grid.n_points
        if amp.shape != (n, n):
            raise ValueError(f"amplitude matrix must be {n}x{n}, got {amp.shape}")
        if amp.dtype != np.complex128:
            raise ValueError("amplitudes must be complex128")
        norm_sq = _finite_squared_norm(amp)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"spectrum must be unit-norm, got sum|c|^2 = {norm_sq!r}")

    @classmethod
    def from_array(cls, grid: FrequencyGrid, raw: np.ndarray) -> "BiphotonSpectrum":
        """Normalize ``raw`` to unit norm and wrap it.

        Raises :class:`DegenerateSpectrumError` when ``raw`` is (effectively)
        zero and therefore cannot represent a state.  ``raw`` itself is never
        modified.
        """
        amp = np.array(raw, dtype=np.complex128, order="C")
        return cls._normalized(grid, amp)

    @classmethod
    def _normalized(
        cls, grid: FrequencyGrid, amp: np.ndarray, warnings: tuple[str, ...] = ()
    ) -> "BiphotonSpectrum":
        """:meth:`from_array` of a C-contiguous complex128 ``amp`` that the caller hands over.

        ``amp`` is divided by its norm where it lies, so normalizing makes no
        second matrix.
        """
        norm_sq = _finite_squared_norm(amp)
        if norm_sq == math.inf:
            # finite entries whose squares overflow the sum: scale by the
            # largest real or imaginary part first, which (unlike the
            # modulus) cannot overflow
            parts = amp.view(np.float64)
            amp = (parts / np.max(np.abs(parts))).view(np.complex128)
            norm_sq = _finite_squared_norm(amp)
        _check_norm(norm_sq)
        # numpy divides a complex matrix by a real norm as a product with its
        # reciprocal; scaling the float view does the same at a third of the cost
        parts = amp.view(np.float64)
        parts *= 1.0 / math.sqrt(norm_sq)
        amp.flags.writeable = False
        return cls(grid=grid, amplitudes=amp, warnings=tuple(warnings))


@dataclass(frozen=True, eq=False)
class _FactoredState:
    """Unnormalized ``c[i, j] = x[i] * y[j] * pump[i + j]``, kept as its O(n) factors.

    ``pump`` holds the ``2n - 1`` values of a real term in ``omega_1 + omega_2``
    (entry ``i + j`` belongs to cell ``(i, j)``), or is None for a flat one.
    A one-hot pump (one nonzero entry ``m``) puts the state on the
    anti-diagonal ``i + j = m``: the delta pump and the Bell state.
    :meth:`spectrum` builds the state; :func:`exchange_sweep`,
    :func:`_row_sums` and :func:`_leading_singular_pair` reduce the factors
    without it.
    """

    grid: FrequencyGrid
    x: np.ndarray
    y: np.ndarray
    pump: np.ndarray | None
    warnings: tuple[str, ...] = ()

    def spectrum(self) -> BiphotonSpectrum:
        """The unit-norm matrix: the outer product is written into one complex
        matrix, multiplied in place by the pump (read as a Hankel matrix by a
        strided view) and normalized in place, so no other n x n array is made."""
        n = self.grid.n_points
        c = np.multiply.outer(self.x, self.y, out=np.empty((n, n), dtype=np.complex128))
        if self.pump is not None:
            c *= np.lib.stride_tricks.sliding_window_view(self.pump, n)
        return BiphotonSpectrum._normalized(self.grid, c, self.warnings)


def _finite_squared_norm(a: np.ndarray) -> float:
    """``sum |a|**2`` of a complex128 matrix; raises ``ValueError`` on NaN/Inf.

    One pass serves both checks: the sum is finite exactly when every entry
    is, unless it overflows, so the entries are only inspected when it is
    not.  ``einsum`` sums each row of the float view in its own loop, with
    no BLAS, so the bits do not depend on the BLAS thread count; the row
    sums are then added pairwise.
    """
    norm_sq = float(np.sum(_row_squared_norms(np.ascontiguousarray(a))))
    if not math.isfinite(norm_sq) and not np.all(np.isfinite(a)):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    return norm_sq


def _row_squared_norms(a: np.ndarray) -> np.ndarray:
    """``sum_j |a[i, j]|**2`` of a C-contiguous complex matrix, per row."""
    x = a.view(np.float64)
    return np.einsum("ij,ij->i", x, x)


@dataclass(frozen=True, eq=False)
class TimeWavepacket:
    """Two-photon amplitude on a uniform grid of retarded times.

    ``values[m1, m2] = sum_ij c[i, j] exp(-i omega_i t_m1) exp(-i omega_j t_m2)``
    on the time grid conjugate to the frequency grid: ``n`` points with step
    ``dt = 2*pi / (n * domega)``, centered on zero, covering one full period
    ``n*dt = 2*pi/domega`` of the sampled transform.

    With this convention the discrete Parseval identity is exact:
    ``sum |values|**2 * dt**2 / (n*dt)**2 == sum |c|**2``, i.e.
    ``total_power() == 1`` for a unit-norm source spectrum.
    """

    time_axis: np.ndarray
    values: np.ndarray

    def total_power(self) -> float:
        """``sum |values|**2 / n**2``; equals the source ``sum |c|**2``."""
        n = self.values.shape[0]
        return float(np.sum(np.abs(self.values) ** 2)) / n**2


def _weight(w: float) -> float:
    # the reported antisymmetric weight: at or below _ZERO_WEIGHT the part
    # counts as absent, and rounding past 1 is clamped
    return 0.0 if w <= _ZERO_WEIGHT else min(w, 1.0)


# Rows per slab of the factorization residual of time-domain exports, and
# twice those of the row and diagonal sums of a spectrum's reduction: a slab is
# ~1 MB at n = 1025, a sixteenth of one n x n matrix, and stays in cache
# while it is worked on.
_EXCHANGE_SLAB = 64


def exchange_weights(c: np.ndarray) -> tuple[float, float]:
    """Squared norms ``(sym, anti) = (sum |c + c^T|**2 / 4, sum |c - c^T|**2 / 4)``.

    The weights of the exchange-symmetric and -antisymmetric parts of a
    square matrix; ``sym + anti = sum |c|**2`` and, because the exchange
    overlap ``V = sum conj(c[i,j]) c[j,i]`` is real, ``sym - anti = V``.
    Every beam-splitter probability is a combination of the two.

    Both are ``sum_i (r_i +- v_i) / 2`` of the row sums of
    :func:`_matrix_row_sums`, added exactly by ``math.fsum``: ``sym - anti``
    stays within ~2e-16 of the exactly summed overlap at n = 1025, where
    pairwise sums drift by a unit in the last place near 1.  A matrix that
    is symmetric (antisymmetric) bit for bit has ``v = r`` (``v = -r``), so
    ``anti`` (``sym``) is exactly 0.0.
    """
    r, v = _matrix_row_sums(c)
    return 0.5 * math.fsum(r + v), 0.5 * math.fsum(r - v)


def _matrix_row_sums(
    c: np.ndarray, each_slab: Callable[[int, np.ndarray, np.ndarray], None] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``r_i = sum_j |c[i,j]|**2`` and ``v_i = Re sum_j conj(c[i,j]) c[j,i]`` of a square matrix.

    ``v`` runs over slabs of rows of ``c`` against a copy of the same
    columns, each summed by the ``einsum`` loop of ``r`` with no BLAS, so
    rows equal bit for bit give equal sums and no n x n temporary is made.
    ``each_slab(i, rows, cols)`` sees each slab of rows from row ``i`` and
    its copied columns, which it may overwrite.
    """
    c = np.ascontiguousarray(c)
    n = c.shape[0]
    r = _row_squared_norms(c)
    v = np.empty(n)
    # half-size slabs keep a slab and its shifted copy in _matrix_sums under
    # a tenth of an n x n matrix
    size = _EXCHANGE_SLAB // 2
    block = np.empty((size, n), dtype=np.complex128)
    for i in range(0, n, size):
        rows = c[i : i + size]
        cols = block[: len(rows)]
        np.copyto(cols, c[:, i : i + size].T)
        v[i : i + len(rows)] = np.einsum("ij,ij->i", rows.view(np.float64), cols.view(np.float64))
        if each_slab is not None:
            each_slab(i, rows, cols)
    return r, v


def _row_sums(s: BiphotonSpectrum | _FactoredState) -> tuple[np.ndarray, np.ndarray]:
    """``r`` and ``v`` of :func:`_matrix_row_sums`, of a spectrum or from the factors
    of a state (:func:`_factored_row_sums`), with the norm checks of
    :meth:`BiphotonSpectrum.from_array` for the factors."""
    if not isinstance(s, _FactoredState):
        return _matrix_row_sums(s.amplitudes)
    r, v, _ = _factored_row_sums(s)(s.x)
    _check_norm(float(np.sum(r)))
    return r, v


def _check_norm(norm_sq: float) -> None:
    if not math.isfinite(norm_sq):
        raise ValueError("amplitudes must be finite (no NaN/Inf)")
    if norm_sq < _MIN_NORM**2:
        raise DegenerateSpectrumError(
            "degenerate spectrum: amplitude matrix is (effectively) zero"
        )


# Largest ratio (|a|^2 + |b|^2) sum_i r_i / N at which exchange_sweep reads a
# two-wave row off its O(n) terms, whose error is ~2e-16 times that ratio.
_SWEEP_CANCELLATION = 10.0


# Phase-table cells (rows times blocked coefficients) per slab of the rows of
# exchange_sweep, and cells per slab of the anti-diagonal sums of a factored
# state: a slab's products stay near 1 MB on any grid.
_SWEEP_CELLS = 2**16

# The refusal of a path difference, fixed or swept, that leaves no state.
_ANNIHILATED = "degenerate spectrum: path-difference modulation annihilates the sampled support"


def exchange_sweep(
    s: BiphotonSpectrum | _FactoredState, min_norm_squared: float = _MIN_NORM**2
) -> Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]:
    """Antisymmetric weights of ``s`` with port-1 rows scaled by two plane waves.

    Returns ``w(a, b, tau)``: for each row of the 1-D arrays ``a``, ``b``
    and ``tau`` (scalars broadcast), the antisymmetric weight (``anti`` of
    :func:`exchange_weights`, 0 at or below ``_ZERO_WEIGHT``) of ``s`` with
    row ``i`` scaled by ``d_i = a exp(i tau nu_i) + b exp(-i tau nu_i)`` and
    renormalized: the balanced-splitter coincidence of that state.  A delay
    ``dz`` is ``(1, 0, dz / c)``, since its carrier phase is global.

    With ``G[i,j] = conj(c[i,j]) c[j,i]``, ``r_i = sum_j |c[i,j]|**2`` and
    ``N = sum_i r_i |d_i|**2``, ``2 w N = N - Re d^H G d`` reads ``G`` only
    through its diagonal sums ``T_k`` (``k = j - i``) and anti-diagonal sums
    ``S_m`` (``m = i + j``).  So one O(n^2) pass to ``T``, ``S``, ``r`` and
    ``D = sum_i (r_i - v_i)``, ``v_i = Re sum_j G[i,j]``, leaves O(n) per
    row.  With ``theta = tau domega``, ``e_q = exp(i q theta)``,
    ``R = sum_i r_i``, ``r'_{2i} = r_i`` (0 at odd indices) and
    ``rw = R - conj(sum_m r'_m (1 - e_{m-n+1}))``:

        N = (|a|^2 + |b|^2) R + 2 Re[conj(a) b rw]
        2 w N = (|a|^2 + |b|^2) D
                + 2 Re sum_k T_k (|a|^2 (1 - e_k) + |b|^2 (1 - conj e_k))
                + 2 Re[conj(a) b (rw - sum_m S_m conj e_{m-n+1})]

    Each phase sum ``sum_q c_q (1 - e_q)`` is taken for all rows at once by
    :func:`_phase_sums`: with ``q = A B + b``, an odd block ``B`` near
    ``sqrt(n)``, ``|b| <= B // 2`` and the tables ``E_A = exp(i A B theta)``
    and ``E_b = exp(i b theta)``,

        sum_q c_q (1 - e_q) = sum_A (1 - E_A) sum_b c[A,b] + sum_A E_A sum_b c[A,b] (1 - E_b),

    about ``2 sqrt(n)`` complex exponentials a row instead of ``n``.  The
    form keeps two identities exact: at ``theta = 0`` every table entry is 1
    and every sum exactly 0, so a bit-symmetric ``s`` (both terms of ``D``
    summed by one routine) gives ``w(1, 0, 0) = 0``; and at ``tau = 0``
    ``rw = R``, so a norm whose two waves cancel there (``a = -b``) is
    exactly 0.  No BLAS runs, and each row has the same bits in any batch.

    A spectrum is reduced by slabs of its rows (:func:`_matrix_sums`).  A
    factored state ``c[i,j] = x_i y_j p[i+j]``, as scans of every model source
    pass, is never built: its ``G[i,j] = u_i conj(u_j) P[i+j]`` with
    ``u = conj(x) y`` and ``P = p**2`` gives every sum from O(n) vectors
    (:func:`_factored_sums`, which sums ``T_k`` along the anti-diagonals of
    the pump's support only).  Near a node of ``d`` the
    terms cancel: a row whose ``N`` is over ``_SWEEP_CANCELLATION`` times
    below ``(|a|^2 + |b|^2) R``, or below ``min_norm_squared``, has its scaled
    state reduced instead.  So has every
    row of a one-hot pump (the delta pump and the Bell state), which leaves
    one cell per row and costs O(n): its rows keep the exact zeros and ones
    of a bit-symmetric or bit-antisymmetric scaled state.  A scaled state
    below ``min_norm_squared`` (by default the zero-norm floor of
    :meth:`BiphotonSpectrum.from_array`) is no state: the call raises
    :class:`DegenerateSpectrumError` at the first such row, with the message
    that refuses a fixed path difference annihilating its state.
    """
    producer = _factored_sums if isinstance(s, _FactoredState) else _matrix_sums
    r, v, t, antidiag, scaled = producer(s)
    n = s.grid.n_points
    one_hot = isinstance(s, _FactoredState) and np.count_nonzero(_squared_pump(s)) == 1
    d = math.fsum(r - v)
    r_total = float(np.sum(r))
    r_even = np.zeros(2 * n - 1)
    r_even[::2] = r
    diagonals = _phase_sums(t[None], 1)
    anti_diagonals = _phase_sums(np.stack((r_even, antidiag)), 1 - n)
    s_total = float(np.sum(antidiag))

    def reduced(a: complex, b: complex, tau: float) -> float:
        # the weight of the scaled state, reduced from its rows
        sym, anti = scaled(_plane_waves(s.grid, a, b, tau))
        if sym + anti < min_norm_squared:
            raise DegenerateSpectrumError(_ANNIHILATED)
        return _weight(anti / (sym + anti))

    def weights(a, b, tau) -> np.ndarray:
        a, b, tau = np.broadcast_arrays(
            np.atleast_1d(np.asarray(a, dtype=complex)),
            np.asarray(b, dtype=complex),
            np.asarray(tau, dtype=float),
        )
        if one_hot:
            return np.array([reduced(*row) for row in zip(a, b, tau)], dtype=float)
        a2, b2 = np.abs(a) ** 2, np.abs(b) ** 2
        theta = tau * s.grid.spacing
        norm_sq = (a2 + b2) * r_total
        twice = (a2 + b2) * d + 2.0 * a2 * diagonals(theta)[:, 0].real
        if np.any(b):
            pair = np.conj(a) * b
            sums = anti_diagonals(theta)
            rw = r_total - np.conj(sums[:, 0])
            norm_sq += 2.0 * (pair * rw).real
            twice += 2.0 * b2 * diagonals(-theta)[:, 0].real
            twice += 2.0 * (pair * (rw - (s_total - np.conj(sums[:, 1])))).real
        reduce = (norm_sq < min_norm_squared) | (
            norm_sq < (a2 + b2) * r_total / _SWEEP_CANCELLATION
        )
        out = np.empty(len(theta))
        for i in np.flatnonzero(reduce):
            out[i] = reduced(a[i], b[i], tau[i])
        w = 0.5 * twice[~reduce] / norm_sq[~reduce]
        out[~reduce] = np.where(w <= _ZERO_WEIGHT, 0.0, np.minimum(w, 1.0))
        return out

    return weights


def _phase_sums(c: np.ndarray, q0: int) -> Callable[[np.ndarray], np.ndarray]:
    """``theta -> sum_j c[k, j] (1 - exp(i (q0 + j) theta_r))``, shape ``(rows, k)``.

    The blocked sums of :func:`exchange_sweep`: index ``q = q0 + j`` is cell
    ``(A, b)`` of zero-padded blocks ``c[k, A, b]`` with ``q = A B + b``, odd
    ``B`` near ``sqrt(len(c[k]))`` and ``|b| <= B // 2``.  Each slab of rows
    builds the tables ``E_A`` and ``E_b`` and sums each block against
    ``1 - E_b`` along its last axis, so no BLAS runs and a row's bits do not
    depend on the other rows of its batch.
    """
    k, length = c.shape
    size = 2 * (math.isqrt(length) // 2) + 1
    half = size // 2
    first = (q0 + half) // size
    count = (q0 + length - 1 + half) // size - first + 1
    cells = np.zeros((k, count * size), dtype=np.complex128)
    offset = q0 - first * size + half
    cells[:, offset : offset + length] = c
    cells = cells.reshape(k, count, size)
    block_sums = cells.sum(axis=2)
    b_index = np.arange(-half, half + 1, dtype=float)
    a_index = np.arange(first, first + count, dtype=float) * size
    slab = max(1, _SWEEP_CELLS // cells.size)

    def sums(theta: np.ndarray) -> np.ndarray:
        out = np.empty((len(theta), k), dtype=np.complex128)
        for i in range(0, len(theta), slab):
            rows = theta[i : i + slab]
            inner = 1.0 - np.exp(1j * np.multiply.outer(rows, b_index))
            inner = (cells * inner[:, None, None, :]).sum(axis=3)
            e = np.exp(1j * np.multiply.outer(rows, a_index))[:, None, :]
            out[i : i + slab] = ((1.0 - e) * block_sums + e * inner).sum(axis=2)
        return out

    return sums


def _matrix_sums(s: BiphotonSpectrum) -> tuple:
    """The O(n^2) pass of :func:`exchange_sweep` over slabs of the rows of ``s``.

    Returns ``r``, ``v``, ``T_k`` for ``k = 1..n-1`` (``T_{-k} = conj(T_k)``
    and the ``k = 0`` term is 0), the real ``S_m`` for ``m = 0..2n-2``, and
    ``scaled(d)``, the ``(sym, anti)`` of ``s`` with its rows scaled by ``d``.
    """
    c = np.ascontiguousarray(s.amplitudes)
    n = s.grid.n_points
    diag = np.zeros(2 * n - 1, dtype=np.complex128)
    antidiag = np.zeros(2 * n - 1, dtype=np.complex128)
    # Slabs of rows of conj(G) = G^T, each made from the copy of the same
    # columns: its row k holds G's diagonals k - j and anti-diagonals k + j.
    # Copied into z with row r shifted by size - 1 - r, a slab's column sums
    # are its diagonal sums, and those of its reversed rows its
    # anti-diagonal sums, both in reverse order.
    size = _EXCHANGE_SLAB // 2
    z = np.zeros((size, n + size - 1), dtype=np.complex128)
    shifted = np.lib.stride_tricks.as_strided(
        z.reshape(-1)[size - 1 :], (size, n), (16 * (n + size - 2), 16)
    )

    def diagonal_sums(i: int, rows: np.ndarray, g: np.ndarray) -> None:
        m = len(rows)
        np.conjugate(g, out=g)
        g *= rows
        for sums, part in ((diag, g), (antidiag, g[:, ::-1])):
            np.copyto(shifted[:m], part)
            sums[n - m - i : 2 * n - 1 - i] += z[:m, size - m :].sum(axis=0)

    r, v = _matrix_row_sums(c, diagonal_sums)
    return r, v, diag[::-1][n:], antidiag[::-1].real, lambda d: exchange_weights(d[:, None] * c)


def _factored_sums(f: _FactoredState) -> tuple:
    """:func:`_matrix_sums` of the state ``f`` from its factors, scaled to ``sum_i r_i = 1``.

    ``r`` and ``v`` come from :func:`_factored_row_sums`, with ``u = conj(x) y``
    and ``P = p**2``.  ``S_m = P_m (u * conj u)_m``, where the convolution is
    ``(Re u * Re u + Im u * Im u)_m``, comes from one batched real FFT of
    length :func:`_fft_length` ``(2n - 1)``.  ``T_k = sum_i P[2i+k] u_i
    conj(u_{i+k})`` is summed along the anti-diagonals of the support
    ``[lo, hi)`` of ``P`` only (:func:`_band_sums`), every cell left out being
    an exact ``0 * finite``: a narrow band for the pump of an entangled
    two-path state, the whole triangle for a flat pump.  Scaled rows ``d``
    are reduced as the factors ``(d x, y)``.
    """
    n = f.grid.n_points
    p = _squared_pump(f)
    row_sums = _factored_row_sums(f)
    r, v, u = row_sums(f.x)
    total = float(np.sum(r))
    _check_norm(total)
    fft_size = _fft_length(2 * n - 1)
    w_hat = np.fft.rfft(np.stack((u.real, u.imag)), fft_size)
    antidiag = p * np.fft.irfft(w_hat[0] ** 2 + w_hat[1] ** 2, fft_size)[: 2 * n - 1] / total
    t = _band_sums(u, p, *_support(p))

    def scaled(d: np.ndarray) -> tuple[float, float]:
        r_d, v_d = row_sums(d * f.x)[:2]
        return 0.5 * math.fsum(r_d + v_d) / total, 0.5 * math.fsum(r_d - v_d) / total

    return r / total, v / total, t / total, antidiag, scaled


def _band_sums(u: np.ndarray, p: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``T_k = sum_i P[2i+k] u_i conj(u_{i+k})`` for ``k = 1..n-1``, along the anti-diagonals
    ``lo <= m < hi`` that hold the support of ``P``.

    With ``m = 2s + par``, ``i = s - q`` and ``j = s + q + par``, ``T_{2q+par}``
    is ``sum_s P[m] u_{s-q} conj(u_{s+q+par})``.  For each parity, slabs of
    ``s`` multiply strided views of zero-padded ``u`` and ``conj(u)`` with
    ``q`` as the long contiguous axis, cut to the ``q`` of the slab's valid
    triangle (``s - q >= 0``, ``s + q + par < n``), and sum over ``s``.
    """
    n = len(u)
    # row s, column q of the strided views: u_{s-q} and conj(u_{s+q}), with
    # zeros padded to both past either end of u
    padded = np.zeros(3 * n, dtype=np.complex128)
    padded[n : 2 * n] = u
    reversed_u = padded[::-1].copy()
    np.conjugate(padded, out=padded)
    strided = np.lib.stride_tricks.as_strided
    left = strided(reversed_u[2 * n - 1 :], (n, n // 2 + 1), (-16, 16))
    right = strided(padded[n:], (n, n // 2 + 1), (16, 16))
    t = np.zeros(n - 1, dtype=np.complex128)
    # slabs of at most _SWEEP_CELLS cells, or one row of s, over the n // 2 or
    # fewer q of a parity; a parity has at most (hi - lo + 1) // 2 rows of s
    rows = max(1, min(_SWEEP_CELLS // (n // 2), (hi - lo + 1) // 2))
    block = np.empty(rows * (n // 2), dtype=np.complex128)
    for par in (0, 1):
        s_lo, s_hi = (lo - par + 1) // 2, (hi - 1 - par) // 2 + 1
        q0 = 1 - par
        sums = t[1 - par :: 2]  # T_{2q+par} at q - q0
        for s0 in range(s_lo, s_hi, rows):
            s1 = min(s_hi, s0 + rows)
            # q < q1 holds every cell of the triangle in rows s0 .. s1 - 1, whose
            # longest row is the one nearest s = (n - 1 - par) / 2
            peak = min(max((n - 1 - par) // 2, s0), s1 - 1)
            q1 = min(peak, n - 1 - par - peak) + 1
            g = block[: (s1 - s0) * (q1 - q0)].reshape(s1 - s0, q1 - q0)
            np.multiply(left[s0:s1, q0:q1], right[s0 + par : s1 + par, q0:q1], out=g)
            # scaled as pairs of reals: a complex times a real array casts every cell
            pairs = g.view(np.float64)
            pairs *= p[2 * s0 + par : 2 * s1 + par : 2, None]
            sums[: q1 - q0] += g.sum(axis=0)
    return t


@functools.cache
def _fft_length(m: int) -> int:
    """The smallest ``2^a 3^b 5^c >= m``: an FFT length of small radices only."""
    best, five = 1 << (m - 1).bit_length(), 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << ((m - 1) // odd).bit_length())
            odd *= 3
        five *= 5
    return best


def _support(p: np.ndarray) -> tuple[int, int]:
    """``(lo, hi)``: ``p[lo]`` is the first nonzero entry and ``p[hi - 1]`` the last; ``(0, 0)``
    when there is none."""
    nonzero = np.flatnonzero(p)
    return (int(nonzero[0]), int(nonzero[-1]) + 1) if len(nonzero) else (0, 0)


def _squared_pump(f: _FactoredState) -> np.ndarray:
    # P = p**2, ones for a flat pump
    n = f.grid.n_points
    return np.ones(2 * n - 1) if f.pump is None else f.pump * f.pump


def _factored_row_sums(
    f: _FactoredState,
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``x -> (r, v, u)`` of the state ``(x, f.y, f.pump)``, with ``u = conj(x) y``.

    ``r_i = |x_i|**2 H[|y|**2]_i`` and ``v_i = Re u_i H[Re u]_i + Im u_i H[Im u]_i``
    with the Hankel products of :func:`_hankel` over ``P = p**2``, all three
    in one call, so rows ``w`` equal bit for bit give equal products.
    """
    hankel = _hankel(_squared_pump(f), f.grid.n_points)
    y2 = (np.conj(f.y) * f.y).real

    def row_sums(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        u = np.conj(x) * f.y
        h = hankel(np.stack((y2, u.real, u.imag)))
        return (np.conj(x) * x).real * h[0], u.real * h[1] + u.imag * h[2], u

    return row_sums


def _hankel(p: np.ndarray, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """``w -> H[w]``, ``H[w]_i = sum_j p[i+j] w_j`` for ``i < n``, of each row of real ``w``.

    A one-hot ``p`` (one nonzero ``p[m]``) gives ``p[m] w_{m-i}`` exactly.
    Any other ``p`` takes one batched real FFT of length :func:`_fft_length`
    ``(2n - 1)``, so that no product wraps around; it leaves rounding noise
    where the product is 0, which would spoil the exact zeros of a one-hot pump.
    """
    support = np.flatnonzero(p)
    if len(support) == 1:
        (m,) = support
        lo, hi = max(0, m - n + 1), min(n - 1, m)

        def one_hot(w: np.ndarray) -> np.ndarray:
            h = np.zeros(w.shape)
            h[..., lo : hi + 1] = p[m] * w[..., m - hi : m - lo + 1][..., ::-1]
            return h

        return one_hot
    fft_size = _fft_length(2 * n - 1)
    p_hat = np.fft.rfft(p, fft_size)
    return lambda w: np.fft.irfft(p_hat * np.conj(np.fft.rfft(w, fft_size)), fft_size)[..., :n]


def _plane_waves(grid: FrequencyGrid, a: complex, b: complex, tau: float) -> np.ndarray:
    """Row factors ``a exp(i tau nu_i) + b exp(-i tau nu_i)`` on ``grid``."""
    e = np.exp(1j * tau * grid.offsets())
    return a * e + b * np.conj(e)


def _check_c_light(c_light: float) -> None:
    if not (math.isfinite(c_light) and c_light > 0):
        raise ValueError("c_light must be positive and finite")


def apply_path_delays(
    s: BiphotonSpectrum | _FactoredState, z1: float, z2: float, c_light: float = 1.0
) -> BiphotonSpectrum | _FactoredState:
    """Propagate port 1 over path ``z1`` and port 2 over ``z2``.

    Multiplies each entry by ``exp(i (omega_i z1 + omega_j z2) / c_light)``;
    a pure phase, so every modulus and the total norm are unchanged.  A port phase is
    the scalar ``exp(i center z / c)`` times ``exp(i nu z / c)``; a factored state gets
    them in its factors ``x`` and ``y``.  Zero delays return ``s`` itself.  Paths that
    are not finite, or whose phase ``omega * z / c_light`` overflows, raise :class:`ConfigError`.
    """
    _check_c_light(c_light)
    grid = s.grid
    reach = abs(grid.center) + grid.half_span
    if not (math.isfinite(reach * (z1 / c_light)) and math.isfinite(reach * (z2 / c_light))):
        raise ConfigError(
            f"relative delay dz = z1 - z2 needs finite paths with finite phases "
            f"omega*z/c; got z1 = {z1!r}, z2 = {z2!r}"
        )
    if z1 == 0.0 and z2 == 0.0:
        return s
    taus = (z1 / c_light, z2 / c_light)
    phase1, phase2 = (np.exp(1j * grid.center * t) * np.exp(1j * grid.offsets() * t) for t in taus)
    if isinstance(s, _FactoredState):
        return replace(s, x=s.x * phase1, y=s.y * phase2)
    amp = s.amplitudes * phase1[:, None]
    amp *= phase2[None, :]
    amp.flags.writeable = False
    return BiphotonSpectrum(s.grid, amp, s.warnings)


def _squared_norm(a: np.ndarray) -> float:
    # pairwise sums of the real and imaginary squares; np.vdot accumulates
    # sequentially and drifts by ~1e-13 at n = 1025
    return float(np.sum(a.real**2) + np.sum(a.imag**2))


# Lanczos steps (at most the matrix size) before the leading singular pair
# falls back to the SVD, the relative residual that certifies it, and the
# fixed seed of the start vector.  The start vector comes from the standard
# library's generator: importing numpy.random costs ~8 ms and ~6 MB.
_LANCZOS_STEPS = 200
_RITZ_TOL = 1e-14
_LANCZOS_SEED = 20000305


def _leading_singular_pair(
    c: np.ndarray | BiphotonSpectrum | _FactoredState,
) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Rank-1 fraction and leading singular triple ``(sigma, u, v)`` of ``c / |c|_F``,
    for a matrix, a spectrum's amplitudes or a factored state.

    ``c v = sigma |c|_F u`` with unit ``u`` and ``v``.  The rank-1 fraction
    ``sigma**2`` (clamped, below) is the weight of the best rank-1 (product-state)
    approximation: 1 exactly when the spectrum factorizes as
    ``C1(omega_1) * C2(omega_2)`` (an un-entangled pair), smaller otherwise.

    The leading singular pair comes from Lanczos on ``c^H c`` (Golub-Kahan
    bidiagonalization; Golub & Kahan, SIAM J. Numer. Anal. B 2, 205 (1965))
    with full reorthogonalization and a start vector of a fixed seed, so the
    result is reproducible bit for bit.  Each Lanczos step costs two
    matrix-vector products.  The iteration stops when the top Ritz value
    ``theta`` has the residual bound ``beta_k |s_k| <= 1e-14 theta``, which
    certifies an eigenvalue of ``c^H c`` within ``1e-14 theta`` of ``theta``,
    and the fraction is the Rayleigh quotient ``|c y|**2 / |c|_F**2`` of its
    Ritz vector ``y``.  A state not certified within ``min(n, 200)`` steps
    falls back to the full SVD.

    A factored state is otherwise never built: its products are
    ``q -> x o H(y o q)`` and ``w -> conj(y) o H(conj(x) o w)`` with the
    Hankel matrix ``H[i, j] = p[i+j]`` (:func:`_hankel`), O(n log n) a step.
    A one-hot pump leaves one cell in each row and column, so its singular
    values are the moduli of the cells, read off exactly.  The quotient of
    an exactly rank-1 state can round past 1: the fraction is clamped to 1,
    as :func:`_weight` clamps a weight, and ``sigma`` keeps the quotient.
    """
    if isinstance(c, _FactoredState):
        r = _row_sums(c)[0]
        total = float(np.sum(r))
        n = c.grid.n_points
        support = np.flatnonzero(_squared_pump(c))
        if len(support) == 1:
            # one cell per row and column: the singular values are the moduli
            # |c[i, m - i]| = sqrt(r_i), and the largest is read off exactly
            i = int(np.argmax(r))
            j = int(support[0]) - i
            u, v = np.zeros(n, dtype=np.complex128), np.zeros(n, dtype=np.complex128)
            cell = c.x[i] * c.y[j] * c.pump[i + j]
            u[i] = cell / abs(cell)
            v[j] = 1.0
            fraction = float(r[i]) / total
            return fraction, math.sqrt(fraction), u, v
        apply, adjoint = _factored_operator(c)
    else:
        c = c.amplitudes if isinstance(c, BiphotonSpectrum) else c
        apply, adjoint = (lambda q: c @ q), (lambda p: np.conj(np.conj(p) @ c))
        total = _squared_norm(c)
        n = c.shape[1]
    steps = min(n, _LANCZOS_STEPS)
    basis = np.empty((0, n), dtype=np.complex128)
    alpha = np.empty(steps)
    beta = np.empty(steps)
    rng = random.Random(_LANCZOS_SEED)
    q = np.array([rng.gauss(0.0, 1.0) for _ in range(n)], dtype=np.complex128)
    q /= math.sqrt(_squared_norm(q))
    for k in range(steps):
        if k == len(basis):
            # grown 16 rows at a time, so a short iteration keeps a short basis
            grown = np.empty((min(k + 16, steps), n), dtype=np.complex128)
            grown[:k] = basis
            basis = grown
        basis[k] = q
        p = apply(q)
        alpha[k] = _squared_norm(p)
        w = adjoint(p)
        for _ in range(2):
            # the coefficients conj(basis) @ w, without a conjugated copy of the basis
            w -= np.conj(basis[: k + 1] @ np.conj(w)) @ basis[: k + 1]
        beta[k] = math.sqrt(_squared_norm(w))
        t = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        theta, s = np.linalg.eigh(t)
        if beta[k] * abs(s[-1, -1]) <= _RITZ_TOL * theta[-1]:
            # Rayleigh quotient of the Ritz vector y, without rounding y to unit norm first
            y = s[:, -1] @ basis[: k + 1]
            cy = apply(y)
            y_sq, cy_sq = _squared_norm(y), _squared_norm(cy)
            fraction = cy_sq / (y_sq * total)
            return min(fraction, 1.0), math.sqrt(fraction), cy / math.sqrt(cy_sq), y / math.sqrt(y_sq)
        q = w / beta[k]
    matrix = c.spectrum().amplitudes if isinstance(c, _FactoredState) else c
    u, svals, vh = np.linalg.svd(matrix)
    fraction = float(svals[0] ** 2) / _squared_norm(matrix)
    return min(fraction, 1.0), math.sqrt(fraction), u[:, 0], np.conj(vh[0])


def _factored_operator(
    f: _FactoredState,
) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    # q -> c q and w -> c^H w of c[i, j] = x_i y_j p[i+j], for complex vectors
    n = f.grid.n_points
    real = _hankel(np.ones(2 * n - 1) if f.pump is None else f.pump, n)

    def hankel(w: np.ndarray) -> np.ndarray:
        h = real(np.stack((w.real, w.imag)))
        return h[0] + 1j * h[1]

    return (lambda q: f.x * hankel(f.y * q)), (lambda w: np.conj(f.y) * hankel(np.conj(f.x) * w))


def _time_twists(grid: FrequencyGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # time axis and the input and output twists of time_domain; the integer
    # products are reduced mod n first, so the phases stay exact at large n
    n = grid.n_points
    h = grid.center_index
    dt = 2.0 * math.pi / (n * grid.spacing)
    if not math.isfinite(h * dt):
        raise ConfigError(
            f"grid spacing {grid.spacing!r} is too fine for a time grid: its time step "
            f"2*pi/(n*domega) = {dt:g} gives a time reach {h * dt:g} that is not finite"
        )
    if not math.isfinite(grid.center * (h * dt)):
        raise ConfigError(
            f"grid center {grid.center!r} gives a carrier phase center*t that is not finite "
            f"at the time reach {h * dt:g}"
        )
    k = np.arange(n)
    t = (k - h) * dt
    pre = np.exp((2j * math.pi / n) * ((k * h) % n))
    post = np.exp((2j * math.pi / n) * (((k - h) * h) % n) - 1j * grid.center * t)
    return t, pre, post


def _time_transform(x: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """``sum_i x[i] exp(-i omega_i t_m)`` of a vector, by one FFT."""
    _, pre, post = _time_twists(grid)
    return post * np.fft.fft(pre * x)


def time_domain(s: BiphotonSpectrum) -> TimeWavepacket:
    """Transform to the conjugate time grid.

    ``values = F c F^T`` with ``F[m, i] = exp(-i omega_i t_m)``, evaluated
    in O(n^2 log n) as a phase-twisted ``fft2``: with ``h = center_index``,
    ``omega_i t_m = center t_m + 2 pi (i - h)(m - h) / n``, so each axis of
    ``c`` is twisted by ``exp(2 pi i i h / n)`` before the FFT and each
    output axis by ``exp(2 pi i (m h - h**2) / n - i center t_m)`` after it.
    See :class:`TimeWavepacket` for the grid and Parseval conventions.
    """
    t, pre, post = _time_twists(s.grid)
    n = len(t)
    # fft2 as in-place FFTs of the rows, then the columns, of the one matrix:
    # the same bits.  Both twists go a row at a time: a broadcast product of
    # many rows also allocates two iterator buffers of up to 8192 cells, a
    # quarter of a matrix at n = 257.
    values = np.empty((n, n), dtype=np.complex128)
    for row, c, p in zip(values, s.amplitudes, pre):
        np.multiply(p * pre, c, out=row)
    np.fft.fft(values, axis=1, out=values)
    np.fft.fft(values, axis=0, out=values)
    for row, p in zip(values, post):
        row *= p * post
    t.flags.writeable = False
    values.flags.writeable = False
    return TimeWavepacket(time_axis=t, values=values)
