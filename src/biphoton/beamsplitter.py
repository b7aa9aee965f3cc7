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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import BiphotonSpectrum, FrequencyGrid


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

    @property
    def phi(self) -> float:
        """Combined coalescence phase ``phi_tau + phi_rho``."""
        return self.phi_tau + self.phi_rho

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
    # <0| a a a+ a+ |0> contracts to delta*delta + delta*delta.
    return float(np.real(np.sum(np.conj(d) * (d + d.T))))


def _decomposition_from_channels(
    grid: FrequencyGrid, g11: np.ndarray, g12: np.ndarray, g22: np.ndarray
) -> OutputDecomposition:
    for arr in (g11, g12, g22):
        arr.flags.writeable = False
    return OutputDecomposition(
        grid=grid,
        amp_11=g11,
        amp_22=g22,
        amp_12=g12,
        p_11=_same_port_probability(g11),
        p_22=_same_port_probability(g22),
        p_coinc=float(np.sum(np.abs(g12) ** 2)),
    )


def transform(s: BiphotonSpectrum, p: BeamSplitterParams) -> OutputDecomposition:
    """Send the two-photon state through the splitter.

    The input occupies the one-photon-per-port channel only; the output
    channel amplitudes are

        amp_11[i,j] = c[i,j] exp(i phi) cos(theta) sin(theta)
        amp_22[i,j] = -c[i,j] exp(-i phi) cos(theta) sin(theta)
        amp_12[i,j] = c[i,j] cos(theta)**2 - c[j,i] sin(theta)**2

    and ``p_11 + p_22 + p_coinc = 1``.
    """
    # _substitute_channels with empty same-port channels, without building them
    (u, v), (w, x) = creation_substitution(p)
    c = s.amplitudes
    g12 = u * x * c
    g12 += v * w * c.T
    return _decomposition_from_channels(s.grid, u * w * c, g12, v * x * c)


def transform_decomposition(
    d: OutputDecomposition, p: BeamSplitterParams
) -> OutputDecomposition:
    """Send an already-decomposed two-photon state through a further splitter.

    Composing ``transform(s, p)`` with ``transform_decomposition(., bs_inverse(p))``
    restores the original state.
    """
    k = creation_substitution(p)
    g11, g12, g22 = _substitute_channels(d.amp_11, d.amp_12, d.amp_22, k)
    return _decomposition_from_channels(d.grid, g11, g12, g22)


def coincidence_probability(s: BiphotonSpectrum, p: BeamSplitterParams) -> float:
    """Probability of one photon at each output port ("click-click").

    Equal to ``transform(s, p).p_coinc``; computed from the click-click
    channel alone.  At the balanced splitter this reduces to
    ``sum |c[i,j] - c[j,i]|**2 / 4 = (1 - V) / 2`` with ``V`` the exchange
    overlap.
    """
    ct2 = math.cos(p.theta) ** 2
    st2 = math.sin(p.theta) ** 2
    e = ct2 * s.amplitudes - st2 * s.amplitudes.T
    return float(np.sum(np.abs(e) ** 2))


def trapping_fidelity(s: BiphotonSpectrum) -> float:
    """Squared overlap of the input with the balanced click-click output.

    Equals 1 exactly when the full 50/50 output state coincides with the
    input (the anti-symmetric trapping case) and 0 for symmetric spectra,
    whose click-click channel vanishes.
    """
    c = s.amplitudes
    e = 0.5 * (c - c.T)
    return float(abs(np.vdot(c, e)) ** 2)
