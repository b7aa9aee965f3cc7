"""Separable model sampling against the meshgrid oracle, and its input checks."""

import math
import tracemalloc

import numpy as np
import pytest

import biphoton as bp
from biphoton.models import delta_pump_modulation


def _mesh_gaussian_pair(m: bp.GaussianPairModel, grid: bp.FrequencyGrid) -> bp.BiphotonSpectrum:
    """The Gaussian pair evaluated cell by cell on two meshgrids."""
    w = grid.frequencies()
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    raw = np.exp(
        -((w1 - m.center) ** 2 + (w2 - m.center) ** 2) / (2.0 * m.sigma**2)
    ).astype(np.complex128)
    if m.pump_sigma is not None:
        raw *= np.exp(-((w1 + w2 - 2.0 * m.center) ** 2) / (2.0 * m.pump_sigma**2))
    return bp.BiphotonSpectrum.from_array(grid, raw)


def _mesh_shih(m: bp.ShihModel, grid: bp.FrequencyGrid) -> bp.BiphotonSpectrum:
    """The two-path spectrum evaluated cell by cell on two meshgrids."""
    w = grid.frequencies()
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    envelope = np.exp(
        -((w1 + w2 - 2.0 * m.center) ** 2) / (2.0 * m.sigma_p**2)
        - ((w1 - m.center) ** 2 + (w2 - m.center) ** 2) / (2.0 * m.sigma**2)
    )
    raw = envelope * np.cos(w1 * (m.delta_l / m.c_light))
    s = bp.BiphotonSpectrum.from_array(grid, raw)
    return bp.apply_path_delays(s, m.z1, m.z2, m.c_light)


# (grid center, model center): centred, and a grid shifted off the model center
_CENTERS = [(100.0, 100.0), (101.3, 100.0)]


@pytest.mark.parametrize("n", [3, 257, 1025])
@pytest.mark.parametrize("grid_center,center", _CENTERS)
@pytest.mark.parametrize("pump_sigma", [None, 0.3])
def test_gaussian_pair_matches_meshgrid_oracle(n, grid_center, center, pump_sigma):
    grid = bp.make_grid(grid_center, 6.0, n)
    m = bp.GaussianPairModel(center=center, sigma=1.0, pump_sigma=pump_sigma)
    oracle = _mesh_gaussian_pair(m, grid).amplitudes
    new = bp.gaussian_pair_spectrum(m, grid).amplitudes
    assert np.max(np.abs(new - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [3, 257, 1025])
@pytest.mark.parametrize(
    "grid_center,beta,delta_l",
    # the narrow pump's ridge w1 + w2 = 200 must fall on cells of the
    # shifted grid, or every sample of the 3-point grid underflows
    [(100.0, 0.1, 0.0), (100.0, 0.1, 2.5), (100.0, 0.01, 20.0),
     (101.3, 0.1, 0.0), (101.3, 0.1, 2.5), (103.0, 0.01, 20.0)],
)
def test_shih_matches_meshgrid_oracle(n, grid_center, beta, delta_l):
    grid = bp.make_grid(grid_center, 6.0, n)
    m = bp.ShihModel.from_path_difference(
        center=100.0, sigma=1.0, sigma_p=beta, delta_l=delta_l, z1=1.5, z2=0.7
    )
    oracle = _mesh_shih(m, grid).amplitudes
    new = bp.shih_spectrum(m, grid).amplitudes
    assert np.max(np.abs(new - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("pump_sigma", [None, 0.05, 0.3, 2.0])
@pytest.mark.parametrize("grid_center", [0.0, 0.7])
def test_gaussian_pair_is_exactly_symmetric(pump_sigma, grid_center):
    grid = bp.make_grid(grid_center, 6.0, 257)
    c = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0, pump_sigma), grid).amplitudes
    assert np.array_equal(c, c.T)


@pytest.mark.parametrize("beta", [0.01, 0.1, 1.0])
def test_shih_at_zero_path_difference_is_exactly_symmetric(beta):
    grid = bp.make_grid(90.0, 6.0, 257)
    m = bp.ShihModel.from_path_difference(center=90.0, sigma=1.0, sigma_p=beta, delta_l=0.0)
    c = bp.shih_spectrum(m, grid).amplitudes
    assert np.array_equal(c, c.T)


def _peak_matrices(build) -> float:
    # tracemalloc peak of one call, after a warm-up call, in n x n complex matrices
    build()
    tracemalloc.start()
    try:
        s = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / s.amplitudes.nbytes


def test_sampling_working_set():
    # a meshgrid build holds 4.5 (shih) and 3.5 (gaussian pair) matrices at
    # its peak; the separable envelope needs two.  A shih build that keeps
    # its raw matrix alive while the delay phases are applied holds three.
    grid = bp.make_grid(100.0, 6.0, 1025)
    # a nonzero path, as in every shih_scan row, so the delay phases are
    # applied on top of the build
    shih = bp.ShihModel.from_path_difference(
        center=100.0, sigma=1.0, sigma_p=0.1, delta_l=0.0, z1=1.5
    )
    pair = bp.GaussianPairModel(center=100.0, sigma=1.0, pump_sigma=0.1)
    assert _peak_matrices(lambda: bp.shih_spectrum(shih, grid)) <= 2.25
    assert _peak_matrices(lambda: bp.gaussian_pair_spectrum(pair, grid)) <= 2.25


_BAD_WIDTHS = [0.0, -1.0, math.nan, math.inf, 1e-300, 1e-154, 1e154, 1e200]


@pytest.mark.parametrize("value", _BAD_WIDTHS)
def test_bandwidths_with_unrepresentable_exponents_rejected(value):
    grid = bp.make_grid(0.0, 6.0, 17)
    with pytest.raises(ValueError, match="sigma"):
        bp.GaussianPairModel(center=0.0, sigma=value)
    with pytest.raises(ValueError, match="pump_sigma"):
        bp.GaussianPairModel(center=0.0, sigma=1.0, pump_sigma=value)
    with pytest.raises(ValueError, match="sigma"):
        bp.ShihModel(center=90.0, sigma=value, sigma_p=0.1, l_short=0.0, l_long=1.0)
    with pytest.raises(ValueError, match="sigma_p"):
        bp.ShihModel(center=90.0, sigma=1.0, sigma_p=value, l_short=0.0, l_long=1.0)
    with pytest.raises(ValueError, match="sigma"):
        bp.delta_pump_spectrum(value, 0.0, 1.0, "even", grid)


def test_smallest_and_largest_representable_bandwidths_accepted():
    # 2*s**2 just inside the normal float range on both ends
    for s in (1.1e-154, 9e153):
        assert bp.GaussianPairModel(center=0.0, sigma=s).sigma == s


@pytest.mark.parametrize("z1,z2", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (1e308, 0.0)])
def test_non_finite_path_delays_rejected(z1, z2):
    s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0), bp.make_grid(0.0, 6.0, 17))
    with pytest.raises(bp.ConfigError, match="dz"):
        bp.apply_path_delays(s, z1, z2)


@pytest.mark.parametrize("dl", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_path_difference_rejected(dl):
    grid = bp.make_grid(0.0, 6.0, 17)
    with pytest.raises(bp.ConfigError, match="dl"):
        delta_pump_modulation(grid, dl, "even")
    with pytest.raises(bp.ConfigError, match="dl"):
        bp.delta_pump_spectrum(1.0, 0.0, dl, "odd", grid)
