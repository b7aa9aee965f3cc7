"""Reference values the benchmark checks biphoton's outputs against.

Each oracle is written from the published closed form or from a direct
definition, with numpy alone; none calls into biphoton.  Units are natural
(``c = 1``); delays ``dz`` and half path differences ``dl`` are lengths, and
only ``sigma*dz`` and ``sigma*dl`` enter.
"""

from __future__ import annotations

import math

import numpy as np


def hom_dip(sigma: float, dz: float) -> float:
    """Hong-Ou-Mandel dip of a Gaussian pair: ``(1 - exp(-(sigma*dz)**2/2))/2``."""
    x = sigma * dz
    return 0.5 * (1.0 - math.exp(-0.5 * x * x))


def two_path_norm(sigma: float, sigma_p: float, center: float, dl: float) -> float:
    """Squared norm ``B`` of the two-path spectrum relative to its envelope.

    ``B = (1 + cos(2*center*dl) * exp(-(1+beta^2)/(2+beta^2) * (sigma*dl)^2)) / 2``,
    where ``2*center*dl`` is the published ``4*pi*dl/lambda``.
    """
    b2 = (sigma_p / sigma) ** 2
    return 0.5 * (1.0 + math.cos(2.0 * center * dl)
                  * math.exp(-(1.0 + b2) / (2.0 + b2) * (sigma * dl) ** 2))


def two_path_exact(sigma: float, sigma_p: float, center: float, dl: float, dz: float) -> float:
    """Exact balanced coincidence of the two-path (Shih-type) pair.

    ``P = 1/2 - [cos(4 pi dl/lambda) exp(-(beta^2/(2+beta^2) dl^2 + dz^2) sigma^2/2)
    + exp(-((dl+dz) sigma)^2/2)/2 + exp(-((dl-dz) sigma)^2/2)/2] / (4 B)``.
    """
    b2 = (sigma_p / sigma) ** 2
    s2 = sigma * sigma
    interference = math.cos(2.0 * center * dl) * math.exp(
        -0.5 * (b2 / (2.0 + b2) * dl * dl + dz * dz) * s2)
    sides = 0.5 * (math.exp(-0.5 * (dl + dz) ** 2 * s2) + math.exp(-0.5 * (dl - dz) ** 2 * s2))
    return 0.5 - (interference + sides) / (4.0 * two_path_norm(sigma, sigma_p, center, dl))


def two_path_reduced(sigma: float, center: float, dl: float, dz: float) -> float:
    """Wide-separation, narrow-pump limit of :func:`two_path_exact`."""
    s2 = sigma * sigma
    return 0.5 * (1.0 - math.cos(2.0 * center * dl) * math.exp(-0.5 * dz * dz * s2)
                  - 0.5 * math.exp(-0.5 * (dl + dz) ** 2 * s2)
                  - 0.5 * math.exp(-0.5 * (dl - dz) ** 2 * s2))


def frequencies(center: float, half_span: float, n: int) -> np.ndarray:
    """Uniform odd-sized grid ``center + k*d``, ``k = -(n-1)/2 .. (n-1)/2``."""
    return center + (np.arange(n) - (n - 1) // 2) * (2.0 * half_span / (n - 1))


def normalized(c: np.ndarray) -> np.ndarray:
    return c / math.sqrt(float(np.sum(np.abs(c) ** 2)))


def gaussian_pair(w: np.ndarray, center: float, sigma: float,
                  pump_sigma: float | None = None, dz: float = 0.0) -> np.ndarray:
    """Unit-norm Gaussian pair, optionally pump-entangled, port 1 delayed by ``dz``."""
    g = np.exp(-((w - center) ** 2) / (2.0 * sigma * sigma))
    c = np.outer(g * np.exp(1j * w * dz), g)
    if pump_sigma is not None:
        s = w[:, None] + w[None, :] - 2.0 * center
        c = c * np.exp(-(s * s) / (2.0 * pump_sigma ** 2))
    return normalized(c)


def anti_diagonal(w: np.ndarray, center: float, sigma: float, dl: float, parity: str) -> np.ndarray:
    """Unit-norm delta-pump spectrum: ``exp(-nu^2/sigma^2) cos|sin(nu dl)`` on ``nu2 = -nu1``."""
    nu = w - center
    trig = np.cos if parity == "even" else np.sin
    c = np.zeros((w.size, w.size), dtype=complex)
    k = np.arange(w.size)
    c[k, w.size - 1 - k] = np.exp(-(nu * nu) / sigma ** 2) * trig(nu * dl)
    return normalized(c)


def antisymmetric_weight(c: np.ndarray) -> float:
    """Balanced-splitter coincidence ``sum |c - c^T|^2 / 4`` of a unit-norm ``c``."""
    return 0.25 * float(np.sum(np.abs(c - c.T) ** 2))


def trapping_fidelity(c: np.ndarray) -> float:
    """``|<c, (c - c^T)/2>|^2``: overlap of the input with its balanced click-click output."""
    return abs(0.5 * (1.0 - np.vdot(c, c.T))) ** 2


def rank1_fraction(c: np.ndarray) -> float:
    """Largest eigenvalue of ``c c^H`` over its trace (Hermitian eigensolver, not an SVD)."""
    ev = np.linalg.eigvalsh(c @ c.conj().T)
    return float(ev[-1] / np.sum(ev))


def time_domain(w: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum_ij c_ij exp(-i w_i t_m) exp(-i w_j t_n)`` as a phase-twisted ``fft2``.

    On the conjugate grid ``t_m = (m - h) * 2 pi / (n dw)`` with ``h = (n-1)/2``,
    ``w_i t_m = w_h t_m + 2 pi (i - h)(m - h)/n``, so the sum is ``fft2`` of
    ``c`` twisted by ``exp(2 pi i h i/n)`` on each axis, then twisted back.
    """
    n = w.size
    h = (n - 1) // 2
    dw = (w[-1] - w[0]) / (n - 1)
    t = (np.arange(n) - h) * (2.0 * math.pi / (n * dw))
    k = np.arange(n)
    pre = np.exp(2j * math.pi * h * k / n)
    post = np.exp(-1j * w[h] * t) * np.exp(2j * math.pi * h * (k - h) / n)
    values = np.fft.fft2(c * np.outer(pre, pre)) * np.outer(post, post)
    return t, values

