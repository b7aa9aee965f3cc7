"""Closed-form physical spectra and their analytic coincidence curves.

Four families:

* Gaussian pair — two identical single-photon Gaussians of bandwidth
  ``sigma`` around a common center, optionally multiplied by a Gaussian
  pump envelope in ``omega_1 + omega_2``.  Its balanced-splitter delay scan
  is the classic dip ``P = (1 - exp(-(sigma*dz/c)**2 / 2)) / 2``.
* Two-path (Shih-type) pair — the pump-entangled Gaussian pair with the
  port-1 photon split over a short and a long path, giving a
  ``cos(omega_1 * dl / c)`` modulation.  :class:`ShihModel` is the source,
  its bandwidths and carrier; the half path difference ``dl`` and the paths
  are values of a row, taken by the closed forms as arguments and put on a
  state by :func:`shih_row_factor`.  ``shih_exact`` is its exact
  coincidence probability; ``shih_reduced`` the wide-separation,
  narrow-pump limit.
* Delta pump — the infinitesimal-pump-bandwidth limit: support exactly on
  the anti-diagonal ``nu_2 = -nu_1``, with a cosine (symmetric) or sine
  (antisymmetric) profile depending on the path-difference parity.
* Antisymmetric Bell — the two-frequency singlet combination, the textbook
  perfectly anti-coalescent state.

Every source factors on the grid as ``c[i, j] = x[i] * y[j] * p[i + j]``:
``x`` and ``y`` carry the 1-D Gaussian or profile, the row modulation and
the port path phases ``exp(i omega z / c)``, and the pump term ``p`` has
only ``2n - 1`` distinct values.  The delta pump and the Bell state have a
one-hot ``p`` that keeps a single anti-diagonal.  So sampling evaluates
``exp`` on O(n) points into a private factored state.  Scans and transform
reports reduce that state from its factors and never build it; the public
builders write it into one n x n complex array and normalize it there.  A
state is built at ``dl = 0`` without delays: :func:`_path_difference` and
:func:`~biphoton.spectrum.apply_path_delays` fold the ``dl`` row factor and
the path phases into ``x`` and ``y``, before any matrix is built.  With real
factors ``x[i] * y[j]`` equals ``x[j] * y[i]`` bit for bit whenever ``x``
equals ``y``, so such a state is exactly exchange-symmetric.

Everything uses angular frequencies, sampled as grid offsets from one scalar
carrier; lengths and ``c_light`` only enter via the dimensionless groups
``sigma*dz/c``, ``sigma*dl/c``, ``beta`` and ``dl/lambda``, so natural units
(``sigma = c = 1``) and SI values give identical physics.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .errors import ConfigError, DegenerateSpectrumError
from .spectrum import (
    _ANNIHILATED,
    BiphotonSpectrum,
    FrequencyGrid,
    _FactoredState,
    _check_c_light,
    _hankel,
    _plane_waves,
    _squared_pump,
)

# Minimum grid coverage (in units of sigma) below which model builders
# attach a truncation warning to the result.
_COVERAGE_SIGMAS = 4.0

# shih_reduced is the sigma*dl/c >> 1, beta << 1 limit of shih_exact, and is noted
# below this sigma*dl/c and above this beta.
_PATH_DIFFERENCE_LIMIT = 5.0
_BETA_LIMIT = 0.1
# beta*sigma*dl/c above which shih_reduced is noted: the pump-width factor it omits,
# exp(-(beta*sigma*dl/c)**2 / (2*(2 + beta**2))), moves it by up to 0.0303 at the limit.
_PUMP_WIDTH_LIMIT = 0.5

# On-grid snap tolerance for the Bell tones, relative to the grid spacing.
_SNAP_TOL = 1e-9

# Relative squared norm below which the two-path modulation annihilates a state.
MIN_MODULATION_WEIGHT = 1e-15


def _check_bandwidth(name: str, value: float) -> None:
    # A Gaussian exponent divides by 2*value**2, which must be a positive
    # normal float: an underflow to 0 or a subnormal, or an overflow to inf,
    # would turn the samples into NaN or lose them.
    two_s2 = 2.0 * value * value
    if not (value > 0 and sys.float_info.min <= two_s2 < math.inf):
        raise ValueError(
            f"{name} must be positive and finite, with 2*{name}**2 a normal float; got {value!r}"
        )


@dataclass(frozen=True)
class GaussianPairModel:
    """Symmetric Gaussian two-photon spectrum.

    ``pump_sigma`` selects the pump envelope in ``omega_1 + omega_2``:
    ``None`` for a flat envelope (un-entangled product state), or the
    bandwidth of a Gaussian envelope centered on ``2*center``.
    """

    center: float
    sigma: float
    pump_sigma: float | None = None

    def __post_init__(self):
        _check_bandwidth("sigma", self.sigma)
        if self.pump_sigma is not None:
            _check_bandwidth("pump_sigma", self.pump_sigma)
        if not math.isfinite(self.center):
            raise ValueError("center must be finite")


@dataclass(frozen=True)
class ShihModel:
    """Pump-entangled Gaussian pair of a two-path (short/long) source.

    The source is its bandwidths and carrier.  The half path difference
    ``delta_l`` (signal paths ``z1 -+ delta_l``) and the paths ``z1`` and
    ``z2`` (idler) are values of a row, not of the model: the closed forms
    take ``delta_l`` as an argument, and a row's amplitude, up to normalization

        exp(-(w1+w2-2*center)**2 / (2*sigma_p**2))
        * exp(-((w1-center)**2 + (w2-center)**2) / (2*sigma**2))
        * exp(i*(w1*z1 + w2*z2)/c) * cos(w1*delta_l/c),

    is the ``delta_l = 0`` state scaled by :func:`shih_row_factor`, with the
    paths applied by :func:`~biphoton.spectrum.apply_path_delays`.  Derived
    quantities: pump-to-photon bandwidth ratio ``beta = sigma_p / sigma`` and
    carrier wavelength ``wavelength = 2*pi*c_light/center``.
    """

    center: float
    sigma: float
    sigma_p: float
    _: KW_ONLY
    c_light: float = 1.0

    def __post_init__(self):
        _check_bandwidth("sigma", self.sigma)
        _check_bandwidth("sigma_p", self.sigma_p)
        if not (math.isfinite(self.center) and self.center > 0):
            raise ValueError("center must be positive (it sets the carrier wavelength)")
        _check_c_light(self.c_light)

    @property
    def beta(self) -> float:
        return self.sigma_p / self.sigma

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * self.c_light / self.center


def _coverage_warnings(grid: FrequencyGrid, center: float, sigma: float) -> tuple[str, ...]:
    # decided on the offset of the grid center, which no carrier rounds away
    shift, reach = grid.center - center, _COVERAGE_SIGMAS * sigma
    if shift - grid.half_span > -reach or shift + grid.half_span < reach:
        lo, hi = grid.center - grid.half_span, grid.center + grid.half_span
        return (
            f"grid [{lo:g}, {hi:g}] does not cover the model support "
            f"[{center - reach:g}, {center + reach:g}] "
            f"(center +- {_COVERAGE_SIGMAS:g} sigma); the sampled spectrum is truncated",
        )
    return ()


def _gaussian(d: np.ndarray, sigma: float) -> np.ndarray:
    # a square past the float range is inf, and exp(-inf) its exact 0
    with np.errstate(over="ignore"):
        return np.exp(-(d**2) / (2.0 * sigma**2))


def _pump(grid: FrequencyGrid, center: float, pump_sigma: float) -> np.ndarray:
    """Pump term ``exp(-(d_i+d_j)**2 / (2*pump_sigma**2))``, ``d = omega - center``, on the
    ``2n - 1`` sums ``d_0 + d_j`` and ``d_(n-1) + d_j``; entry ``i + j`` serves cell ``(i, j)``."""
    d = grid.offsets() + (grid.center - center)
    return _gaussian(np.concatenate((d[0] + d, d[-1] + d[1:])), pump_sigma)


def _one_hot(grid: FrequencyGrid, m: int) -> np.ndarray:
    # a pump term that keeps only the anti-diagonal i + j = m
    pump = np.zeros(2 * grid.n_points - 1)
    pump[m] = 1.0
    return pump


def _gaussian_pair_state(m: GaussianPairModel, grid: FrequencyGrid) -> _FactoredState:
    pump = None if m.pump_sigma is None else _pump(grid, m.center, m.pump_sigma)
    a = _gaussian(grid.offsets() + (grid.center - m.center), m.sigma)
    return _FactoredState(grid, a, a, pump, _coverage_warnings(grid, m.center, m.sigma))


def gaussian_pair_spectrum(m: GaussianPairModel, grid: FrequencyGrid) -> BiphotonSpectrum:
    """Sample the (optionally pump-entangled) Gaussian pair on ``grid``, without delays.

    It is exchange-symmetric bit for bit; with a flat pump it is an exact
    outer product of two 1D factors (rank-1, un-entangled).  Path delays go
    on through :func:`~biphoton.spectrum.apply_path_delays`.  See the module
    docstring for the factored build.
    """
    return _gaussian_pair_state(m, grid).spectrum()


def hom_dip_closed(sigma: float, dz: float, c_light: float = 1.0) -> float:
    """Balanced-splitter coincidence of the Gaussian pair at path delay ``dz``.

    ``P = (1 - exp(-(sigma*dz/c)**2 / 2)) / 2``: zero at ``dz = 0`` (perfect
    coalescence), 1/2 at large delay, dip width ``c/sigma``.  Independent of
    the pump envelope.
    """
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError("sigma must be positive and finite")
    _check_c_light(c_light)
    x = sigma * dz / c_light
    return 0.5 * (1.0 - math.exp(-0.5 * x * x))


def _path_difference(state: _FactoredState, factor: tuple, floor: float) -> _FactoredState:
    """``state`` at ``dl = 0`` with port-1 row ``i`` scaled by a model's real row factor
    ``a exp(i tau nu_i) + b exp(-i tau nu_i)``, ``factor = (a, b, tau)``: a path difference,
    fixed or swept.  Raises :class:`DegenerateSpectrumError` when the scaled state keeps less
    than ``floor`` of the squared norm ``sum_i |x_i|**2 sum_j p[i+j]**2 |y_j|**2``."""
    modulation = _plane_waves(state.grid, *factor).real
    hankel = _hankel(_squared_pump(state), state.grid.n_points)
    row_norms = (np.conj(state.x) * state.x).real * hankel((np.conj(state.y) * state.y).real)
    if float(modulation**2 @ row_norms) < floor * float(np.sum(row_norms)):
        raise DegenerateSpectrumError(_ANNIHILATED)
    return replace(state, x=state.x * modulation)


def shih_row_factor(
    grid: FrequencyGrid, delta_l: float, c_light: float = 1.0
) -> tuple[complex, complex, float]:
    """Row factor ``cos(omega_i * delta_l / c)`` of the ``delta_l = 0`` spectrum, as
    plane waves ``(a, b, tau)`` in ``nu = omega - grid.center`` (see
    :func:`~biphoton.spectrum.exchange_sweep`): ``a = exp(i grid.center tau) / 2 = conj(b)``.
    Raises ``ValueError`` for a negative ``delta_l``."""
    if delta_l < 0:
        raise ValueError(f"delta_l must be >= 0, got {delta_l!r}")
    tau = delta_l / c_light
    if not math.isfinite((abs(grid.center) + grid.half_span) * tau):
        raise ConfigError(
            f"half path difference dl = {delta_l!r} must give a finite phase omega*dl/c"
        )
    a = 0.5 * cmath.exp(1j * (grid.center * tau))
    return a, a.conjugate(), tau


def _beta_ratio(m: ShihModel) -> float:
    # r = beta^2 / (2 + beta^2), and its limit 1 where the product beta^2 is inf
    beta2 = m.beta * m.beta
    return beta2 / (2.0 + beta2) if beta2 < math.inf else 1.0


def shih_norm_factor(m: ShihModel, delta_l: float) -> float:
    """Mean squared path modulation ``B`` under the Gaussian envelope.

    ``B = (1 + cos(4*pi*delta_l/lambda) * exp(-((1+beta^2)/(2+beta^2)) * (sigma*delta_l/c)**2)) / 2``.

    It equals the squared norm of the two-path spectrum relative to the
    unmodulated envelope, is 1 at ``delta_l = 0`` and tends to 1/2 once the
    path difference far exceeds the single-photon coherence length.
    """
    xl = m.sigma * delta_l / m.c_light
    phase = 4.0 * math.pi * delta_l / m.wavelength
    # (1 + beta^2) / (2 + beta^2) = (1 + r) / 2
    return 0.5 * (1.0 + math.cos(phase) * math.exp(-0.5 * (1.0 + _beta_ratio(m)) * xl * xl))


def shih_exact(m: ShihModel, dz: float, delta_l: float) -> float:
    """Exact balanced-splitter coincidence of the two-path spectrum.

    ``dz`` re-parameterizes the signal/idler path mismatch ``z1 - z2``.

    ``P = (1 - [cos(4*pi*delta_l/lambda) * exp(-((beta^2/(2+beta^2))*dl^2 + dz^2)*(sigma/c)^2/2)
    + exp(-((dl+dz)*sigma/c)^2/2)/2 + exp(-((dl-dz)*sigma/c)^2/2)/2] / (2*B)) / 2``
    with ``B`` from :func:`shih_norm_factor`, clamped to ``[0, 1]`` as the numeric
    weight is: near a zero, rounding can leave it just outside.
    """
    b = shih_norm_factor(m, delta_l)
    if abs(b) < 1e-15:
        raise DegenerateSpectrumError(
            "degenerate spectrum: normalization factor vanishes (path modulation "
            "annihilates the state)"
        )
    s_over_c = m.sigma / m.c_light
    phase = 4.0 * math.pi * delta_l / m.wavelength
    # products, not ** 2, so that a square past the float range is inf and
    # its exp(-inf) an exact 0
    t_pump = math.cos(phase) * math.exp(
        -0.5 * (_beta_ratio(m) * delta_l * delta_l + dz * dz) * (s_over_c * s_over_c)
    )
    plus, minus = (delta_l + dz) * s_over_c, (delta_l - dz) * s_over_c
    t_plus = 0.5 * math.exp(-0.5 * (plus * plus))
    t_minus = 0.5 * math.exp(-0.5 * (minus * minus))
    return min(max(0.5 * (1.0 - (t_pump + t_plus + t_minus) / (2.0 * b)), 0.0), 1.0)


def shih_reduced(m: ShihModel, dz: float, delta_l: float) -> float:
    """Limit form of :func:`shih_exact` for ``delta_l >> c/sigma`` and ``beta << 1``.

    ``P = (1 - cos(4*pi*delta_l/lambda) * exp(-(sigma*dz/c)^2/2)
    - exp(-((dl+dz)*sigma/c)^2/2)/2 - exp(-((dl-dz)*sigma/c)^2/2)/2) / 2``.

    The regime is not enforced, and outside it the value can leave ``[0, 1]``:
    at ``delta_l = 0`` it is ``1/2 - exp(-(sigma*dz/c)^2/2)``, -1/2 at ``dz = 0``.
    """
    s_over_c = m.sigma / m.c_light
    phase = 4.0 * math.pi * delta_l / m.wavelength
    x, plus, minus = dz * s_over_c, (delta_l + dz) * s_over_c, (delta_l - dz) * s_over_c
    t_pump = math.cos(phase) * math.exp(-0.5 * (x * x))
    t_plus = 0.5 * math.exp(-0.5 * (plus * plus))
    t_minus = 0.5 * math.exp(-0.5 * (minus * minus))
    return 0.5 * (1.0 - t_pump - t_plus - t_minus)


def _shih_regime(m: ShihModel, delta_l: float) -> dict[str, float]:
    """The numbers that place the reduced form in or out of its regime."""
    xl = m.sigma * delta_l / m.c_light
    return {"sigma_dl_over_c": xl, "beta": m.beta, "beta_sigma_dl_over_c": m.beta * xl}


def shih_regime_notes(m: ShihModel, delta_l: float) -> tuple[str, ...]:
    """Advisory notes when the reduced form is used outside its regime."""
    regime = _shih_regime(m, delta_l)
    xl, beta_xl = regime["sigma_dl_over_c"], regime["beta_sigma_dl_over_c"]
    notes = []
    if xl < _PATH_DIFFERENCE_LIMIT:
        notes.append(f"reduced form assumes sigma*delta_l/c >> 1; have {xl:g}")
    if m.beta > _BETA_LIMIT:
        notes.append(f"reduced form assumes beta << 1; have {m.beta:g}")
    if beta_xl > _PUMP_WIDTH_LIMIT:
        notes.append(f"reduced form assumes beta*sigma*delta_l/c << 1; have {beta_xl:g}")
    return tuple(notes)


def delta_pump_row_factor(
    grid: FrequencyGrid, dl: float, parity: str, c_light: float = 1.0
) -> tuple[complex, complex, float]:
    """Row factor ``cos`` (even) or ``sin`` (odd) of ``nu_i*dl/c`` of the ``dl = 0`` spectrum,
    as plane waves ``(a, b, tau)``: ``(1/2, 1/2, dl/c)`` or ``(-i/2, i/2, dl/c)``."""
    if parity not in ("even", "odd"):
        raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
    _check_c_light(c_light)
    tau = dl / c_light
    if not math.isfinite(grid.half_span * tau):
        raise ConfigError(f"half path difference dl = {dl!r} must give a finite phase nu*dl/c")
    return (0.5, 0.5, tau) if parity == "even" else (-0.5j, 0.5j, tau)


def _delta_pump_state(sigma: float, grid: FrequencyGrid) -> _FactoredState:
    """The delta pump at ``dl = 0``, centered on the grid: ``x = exp(-nu**2/sigma**2)``,
    ``y = 1`` and a pump that keeps only the anti-diagonal ``nu_2 = -nu_1``."""
    _check_bandwidth("sigma", sigma)
    nu, n = grid.offsets(), grid.n_points
    envelope = np.exp(-(nu**2) / sigma**2)
    warnings = _coverage_warnings(grid, grid.center, sigma)
    return _FactoredState(grid, envelope, np.ones(n), _one_hot(grid, n - 1), warnings)


def bell_antisymmetric_spectrum(
    omega_a: float, omega_b: float, grid: FrequencyGrid
) -> BiphotonSpectrum:
    """Two-frequency singlet ``(|a,b> - |b,a>) / sqrt(2)``.

    The tones snap to the nearest grid cells (with a warning when they are
    not already on-grid); coinciding cells antisymmetrize to zero and raise
    :class:`DegenerateSpectrumError`.  It is the factored state
    ``x = (e_a - e_b) / sqrt(2)``, ``y = e_a + e_b`` with a pump that keeps
    only the anti-diagonal through both cells, built.
    """
    return _bell_state(omega_a, omega_b, grid).spectrum()


def _bell_state(omega_a: float, omega_b: float, grid: FrequencyGrid) -> _FactoredState:
    warnings = []
    indices = []
    for name, omega in (("omega_a", omega_a), ("omega_b", omega_b)):
        pos = (omega - grid.center) / grid.spacing + grid.center_index
        idx = int(round(pos))
        if idx < 0 or idx >= grid.n_points:
            raise ValueError(f"{name} = {omega!r} lies outside the grid")
        snapped = grid.center + (idx - grid.center_index) * grid.spacing
        if abs(snapped - omega) > _SNAP_TOL * grid.spacing:
            warnings.append(f"{name} = {omega:g} snapped to grid point {snapped:g}")
        indices.append(idx)

    ia, ib = indices
    if ia == ib:
        raise DegenerateSpectrumError(
            "degenerate spectrum: the two tones fall on the same grid cell, the "
            "antisymmetric combination vanishes"
        )
    x, y = np.zeros(grid.n_points), np.zeros(grid.n_points)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    x[ia], x[ib] = inv_sqrt2, -inv_sqrt2
    y[[ia, ib]] = 1.0
    return _FactoredState(grid, x, y, _one_hot(grid, ia + ib), tuple(warnings))
