"""Lossless beam-splitter transform of two-photon states.

The mode transform is the 2x2 unitary

    [[exp(i*phi_tau)*cos(theta),  exp(i*phi_rho)*sin(theta)],
     [-exp(-i*phi_rho)*sin(theta), exp(-i*phi_tau)*cos(theta)]]

acting on the port annihilation operators.  Feeding one photon per port
with joint amplitude ``c[i, j]`` through the splitter spreads the state over
three output channels: both photons in port 1, both in port 2, and one per
port ("click-click").  The channel amplitudes are kept as full-grid matrices
and their probabilities use the bosonic two-photon norm, which handles the
degenerate (equal-frequency) cells without any triangular bookkeeping.

Every output probability of an input ``c`` depends on ``c`` only through
its two exchange weights ``sym = sum |c + c^T|**2 / 4`` and
``anti = sum |c - c^T|**2 / 4`` (:func:`~biphoton.spectrum.exchange_weights`),
so one reduction to row sums gives all of them without building the
channels: O(n^2) for a spectrum, O(n log n) from the factors of a model
source.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import (
    BiphotonSpectrum,
    FrequencyGrid,
    _FactoredState,
    _row_sums,
    _squared_norm,
    _weight,
    exchange_weights,
)


@dataclass(frozen=True)
class BeamSplitterParams:
    """The three real angles of the lossless beam-splitter unitary.

    ``theta`` sets the transmission/reflection split (``pi/4`` is the
    balanced 50/50 case); ``phi_tau`` and ``phi_rho`` are the transmission
    and reflection phases.
    """

    theta: float
    phi_tau: float = 0.0
    phi_rho: float = 0.0

    def __post_init__(self):
        for name in ("theta", "phi_tau", "phi_rho"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @classmethod
    def balanced(cls) -> "BeamSplitterParams":
        """The 50/50 splitter: ``theta = pi/4``, zero phases."""
        return cls(theta=math.pi / 4.0)


@dataclass(frozen=True, eq=False)
class OutputDecomposition:
    """Two-photon output state split into its three port channels.

    ``amp_11[i, j]`` multiplies ``a1+(omega_i) a1+(omega_j)`` (both photons
    in port 1), ``amp_22`` the same for port 2, and ``amp_12[i, j]``
    multiplies ``a1+(omega_i) a2+(omega_j)`` (one photon per port).  The
    probabilities are the bosonic norms of the channels and sum to 1.

    Same-port creation operators commute, so ``amp_11``/``amp_22`` carry
    physical content only through their symmetric parts; the antisymmetric
    remainder is a null direction that the norms ignore.
    """

    grid: FrequencyGrid
    amp_11: np.ndarray
    amp_22: np.ndarray
    amp_12: np.ndarray
    p_11: float
    p_22: float
    p_coinc: float

    def __post_init__(self):
        for arr in (self.amp_11, self.amp_22, self.amp_12):
            arr.flags.writeable = False


def bs_matrix(p: BeamSplitterParams) -> np.ndarray:
    """The 2x2 unitary acting on the port annihilation operators."""
    ct, st = math.cos(p.theta), math.sin(p.theta)
    etau = complex(math.cos(p.phi_tau), math.sin(p.phi_tau))
    erho = complex(math.cos(p.phi_rho), math.sin(p.phi_rho))
    return np.array(
        [
            [etau * ct, erho * st],
            [-np.conj(erho) * st, np.conj(etau) * ct],
        ],
        dtype=np.complex128,
    )


def bs_inverse(p: BeamSplitterParams) -> BeamSplitterParams:
    """Parameters of the inverse splitter: ``(-theta, -phi_tau, phi_rho)``."""
    return BeamSplitterParams(theta=-p.theta, phi_tau=-p.phi_tau, phi_rho=p.phi_rho)


def creation_substitution(p: BeamSplitterParams) -> np.ndarray:
    """Matrix ``K`` with ``a_i+(omega) -> sum_j K[i, j] a_j+(omega)``.

    Substituting the transformed creation operators into the input state
    yields the output state directly, so ``K`` is the conjugate of the
    inverse mode matrix.
    """
    return np.conj(bs_matrix(bs_inverse(p)))


def _substitute_channels(
    f11: np.ndarray, f12: np.ndarray, f22: np.ndarray, k: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expand a general two-photon channel triple under ``a_i+ -> K a_j+``."""
    u, v = k[0, 0], k[0, 1]
    w, x = k[1, 0], k[1, 1]
    g11 = u * u * f11 + u * w * f12 + w * w * f22
    g22 = v * v * f11 + v * x * f12 + x * x * f22
    g12 = u * v * (f11 + f11.T) + u * x * f12 + v * w * f12.T + w * x * (f22 + f22.T)
    return g11, g12, g22


def _same_port_probability(d: np.ndarray) -> float:
    # Bosonic norm of sum_ij d[i,j] a+(w_i) a+(w_j) |0>:
    # <0| a a a+ a+ |0> contracts to delta*delta + delta*delta, i.e.
    # Re sum conj(d) (d + d^T) = sum |d + d^T|**2 / 2.
    return 2.0 * exchange_weights(d)[0]


def _weights(s: BiphotonSpectrum | _FactoredState) -> tuple[float, float]:
    """Exchange weights ``sum_i (r_i +- v_i) / (2 sum_i r_i)`` of the unit-norm state
    of ``s`` (:func:`~biphoton.spectrum._row_sums`); a bit-symmetric
    (antisymmetric) state gets exactly ``(1, 0)`` (``(0, 1)``)."""
    r, v = _row_sums(s)
    total = 2.0 * math.fsum(r)
    return math.fsum(r + v) / total, math.fsum(r - v) / total


def _probabilities(
    weights: tuple[float, float], p: BeamSplitterParams
) -> tuple[float, float, float]:
    """``(p_11, p_22, p_coinc)`` of an input with exchange weights ``(sym, anti)``.

    With ``(u, v), (w, x) = creation_substitution(p)`` the channels are
    ``u w c``, ``v x c`` and ``u x c + v w c^T``, so

        p_11 = 2 |u w|**2 sym,   p_22 = 2 |v x|**2 sym,
        p_coinc = |u x + v w|**2 sym + |u x - v w|**2 anti,

    exactly, because the exchange overlap ``sym - anti`` is real.
    """
    sym, anti = weights
    (u, v), (w, x) = creation_substitution(p)
    return (
        float(2.0 * abs(u * w) ** 2 * sym),
        float(2.0 * abs(v * x) ** 2 * sym),
        float(abs(u * x + v * w) ** 2 * sym + abs(u * x - v * w) ** 2 * anti),
    )


def transform(s: BiphotonSpectrum, p: BeamSplitterParams) -> OutputDecomposition:
    """Send the two-photon state through the splitter.

    The input occupies the one-photon-per-port channel only; the output
    channel amplitudes are

        amp_11[i,j] = c[i,j] exp(i phi) cos(theta) sin(theta)
        amp_22[i,j] = -c[i,j] exp(-i phi) cos(theta) sin(theta)
        amp_12[i,j] = c[i,j] cos(theta)**2 - c[j,i] sin(theta)**2

    with the combined coalescence phase ``phi = phi_tau + phi_rho``, and
    ``p_11 + p_22 + p_coinc = 1``.
    """
    # _substitute_channels with empty same-port channels, without building them
    (u, v), (w, x) = creation_substitution(p)
    c = s.amplitudes
    g12 = u * x * c
    g12 += v * w * c.T
    p_11, p_22, p_coinc = _probabilities(_weights(s), p)
    return OutputDecomposition(s.grid, u * w * c, v * x * c, g12, p_11, p_22, p_coinc)


def transform_decomposition(
    d: OutputDecomposition, p: BeamSplitterParams
) -> OutputDecomposition:
    """Send an already-decomposed two-photon state through a further splitter.

    Composing ``transform(s, p)`` with ``transform_decomposition(., bs_inverse(p))``
    restores the original state.
    """
    k = creation_substitution(p)
    g11, g12, g22 = _substitute_channels(d.amp_11, d.amp_12, d.amp_22, k)
    p_11, p_22 = _same_port_probability(g11), _same_port_probability(g22)
    return OutputDecomposition(d.grid, g11, g22, g12, p_11, p_22, _squared_norm(g12))


def coincidence_probability(s: BiphotonSpectrum, p: BeamSplitterParams) -> float:
    """Probability of one photon at each output port ("click-click").

    Equal to ``transform(s, p).p_coinc``, from the same exchange weights,
    without building the channels.  At the balanced splitter this reduces
    to ``sum |c[i,j] - c[j,i]|**2 / 4 = (1 - V) / 2`` with ``V`` the
    exchange overlap.
    """
    return _probabilities(_weights(s), p)[2]


def trapping_fidelity(s: BiphotonSpectrum) -> float:
    """Squared overlap of the input with the balanced click-click output.

    Equals 1 exactly when the full 50/50 output state coincides with the
    input (the anti-symmetric trapping case) and 0 for symmetric spectra,
    whose click-click channel vanishes.  The overlap
    ``<c, (c - c^T) / 2>`` is the antisymmetric weight ``anti`` of
    :func:`~biphoton.spectrum.exchange_weights`, so the fidelity is
    ``anti**2``.
    """
    anti = _weights(s)[1]
    return anti * anti


def exchange_report(
    s: BiphotonSpectrum | _FactoredState, p: BeamSplitterParams
) -> dict[str, float]:
    """The exchange-determined scalars of a transform report, from one reduction.

    ``p_11``, ``p_22`` and ``p_coinc`` as in :func:`transform`, the
    antisymmetric weight ``w_antisym = anti`` (0 at or below ``1e-30``), the
    exchange overlap ``exchange_overlap = sym - anti`` (clamped to [-1, 1];
    ``V = 1`` for symmetric and ``-1`` for antisymmetric spectra) and
    ``trapping_fidelity`` as in :func:`trapping_fidelity`, all from one call
    to :func:`_weights`.  A factored model state is reduced from its O(n)
    factors, so neither it nor the channel matrices are built.
    """
    sym, anti = _weights(s)
    p_11, p_22, p_coinc = _probabilities((sym, anti), p)
    return {
        "p_11": p_11,
        "p_22": p_22,
        "p_coinc": p_coinc,
        "w_antisym": _weight(anti),
        "exchange_overlap": min(1.0, max(-1.0, sym - anti)),
        "trapping_fidelity": anti * anti,
    }
