"""Factored model sampling against the meshgrid oracle, and its input checks."""

import math
import tracemalloc

import numpy as np
import pytest

import biphoton as bp
from biphoton.models import (
    _delta_pump_state,
    _gaussian_pair_state,
    _path_difference,
    delta_pump_row_factor,
    shih_row_factor,
)
from biphoton.spectrum import (
    _SWEEP_CANCELLATION,
    _factored_sums,
    _FactoredState,
    _matrix_sums,
    _plane_waves,
    exchange_sweep,
)
from biphoton.scans import MODELS
from reference import delayed_spectrum, delayed_state


def _carrier_wave(grid, nu, tau):
    # exp(i (center + nu) tau) on offsets nu: the scalar carrier phase times
    # the phase of the offset
    return np.exp(1j * grid.center * tau) * np.exp(1j * nu * tau)


def _mesh_phases(grid, nu1, nu2, z1, z2, c_light=1.0):
    # the port phases exp(i omega z / c) of every cell
    return _carrier_wave(grid, nu1, z1 / c_light) * _carrier_wave(grid, nu2, z2 / c_light)


def _mesh_detunings(grid, center):
    # omega - center of every cell, and the offsets nu = omega - grid.center
    nu1, nu2 = np.meshgrid(grid.offsets(), grid.offsets(), indexing="ij")
    shift = grid.center - center
    return nu1 + shift, nu2 + shift, nu1, nu2


def _mesh_gaussian_pair(
    m: bp.GaussianPairModel, grid: bp.FrequencyGrid, z1: float = 0.0, z2: float = 0.0
) -> bp.BiphotonSpectrum:
    """The delayed Gaussian pair evaluated cell by cell on two meshgrids of offsets."""
    d1, d2, nu1, nu2 = _mesh_detunings(grid, m.center)
    raw = np.exp(-(d1**2 + d2**2) / (2.0 * m.sigma**2)).astype(np.complex128)
    if m.pump_sigma is not None:
        raw *= np.exp(-((d1 + d2) ** 2) / (2.0 * m.pump_sigma**2))
    return bp.BiphotonSpectrum.from_array(grid, raw * _mesh_phases(grid, nu1, nu2, z1, z2))


def _mesh_shih(
    m: bp.ShihModel, grid: bp.FrequencyGrid, delta_l: float, z1: float, z2: float
) -> bp.BiphotonSpectrum:
    """The two-path spectrum evaluated cell by cell on two meshgrids of offsets."""
    d1, d2, nu1, nu2 = _mesh_detunings(grid, m.center)
    envelope = np.exp(
        -((d1 + d2) ** 2) / (2.0 * m.sigma_p**2) - (d1**2 + d2**2) / (2.0 * m.sigma**2)
    )
    # cos(omega_1 dl / c)
    raw = envelope * _carrier_wave(grid, nu1, delta_l / m.c_light).real
    raw = raw * _mesh_phases(grid, nu1, nu2, z1, z2, m.c_light)
    return bp.BiphotonSpectrum.from_array(grid, raw)


# (grid center, model center): centred, and a grid shifted off the model center
_CENTERS = [(100.0, 100.0), (101.3, 100.0)]


# port paths (z1, z2): none, and two distinct nonzero paths folded into the factors
_PATHS = [(0.0, 0.0), (1.5, -0.7)]


@pytest.mark.parametrize("n", [3, 257, 1025])
@pytest.mark.parametrize("grid_center,center", _CENTERS)
@pytest.mark.parametrize("pump_sigma", [None, 0.3])
@pytest.mark.parametrize("z1,z2", _PATHS)
def test_gaussian_pair_matches_meshgrid_oracle(n, grid_center, center, pump_sigma, z1, z2):
    grid = bp.make_grid(grid_center, 6.0, n)
    m = bp.GaussianPairModel(center=center, sigma=1.0, pump_sigma=pump_sigma)
    oracle = _mesh_gaussian_pair(m, grid, z1, z2).amplitudes
    new = bp.apply_path_delays(_gaussian_pair_state(m, grid), z1, z2).spectrum().amplitudes
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
    m = bp.ShihModel(center=100.0, sigma=1.0, sigma_p=beta)
    oracle = _mesh_shih(m, grid, delta_l, 1.5, 0.7).amplitudes
    # the row-state composition of the scans, on a grid of any centre
    factor = shih_row_factor(grid, delta_l, m.c_light)
    state = _path_difference(MODELS["shih"].base(m, grid), factor, MODELS["shih"].row_floor)
    new = bp.apply_path_delays(state, 1.5, 0.7, m.c_light).spectrum().amplitudes
    assert np.max(np.abs(new - oracle)) <= 1e-14 * np.max(np.abs(oracle))
    if grid_center == m.center:
        # a two-path row's state is built on a grid centred on its carrier,
        # with its signal at z1 = 0 and its idler at z2 = -dz
        oracle = _mesh_shih(m, grid, delta_l, 0.0, 0.7).amplitudes
        row = {"center": 100.0, "sigma_p": beta, "delta_l": delta_l, "dz": -0.7}
        new = delayed_spectrum("shih", row, n, 6.0).amplitudes
        assert np.max(np.abs(new - oracle)) <= 1e-14 * np.max(np.abs(oracle))


@pytest.mark.parametrize("pump_sigma", [None, 0.05, 0.3, 2.0])
@pytest.mark.parametrize("grid_center", [0.0, 0.7])
def test_gaussian_pair_is_exactly_symmetric(pump_sigma, grid_center):
    grid = bp.make_grid(grid_center, 6.0, 257)
    c = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0, pump_sigma), grid).amplitudes
    assert np.array_equal(c, c.T)


@pytest.mark.parametrize("beta", [0.01, 0.1, 1.0])
def test_shih_at_zero_path_difference_is_exactly_symmetric(beta):
    c = delayed_spectrum("shih", {"center": 90.0, "sigma_p": beta}, 257, 6.0).amplitudes
    assert np.array_equal(c, c.T)


@pytest.mark.parametrize("n", [3, 257, 1025])
@pytest.mark.parametrize("z1,z2", [(1.5, -0.7), (0.0, 2.0), (-3.0, 0.0)])
def test_folded_paths_match_apply_path_delays(n, z1, z2):
    grid = bp.make_grid(100.0, 6.0, n)
    pair = bp.GaussianPairModel(center=100.0, sigma=1.0, pump_sigma=0.3)
    folded = bp.apply_path_delays(_gaussian_pair_state(pair, grid), z1, z2).spectrum().amplitudes
    applied = bp.apply_path_delays(bp.gaussian_pair_spectrum(pair, grid), z1, z2).amplitudes
    assert np.max(np.abs(folded - applied)) <= 1e-15

    # a two-path row keeps its signal at z1 = 0 and delays its idler by the
    # relative delay dz = z1 - z2
    row, dz = {"center": 100.0, "sigma_p": 0.1, "delta_l": 2.5}, z1 - z2
    folded = delayed_spectrum("shih", {**row, "dz": dz}, n, 6.0).amplitudes
    applied = bp.apply_path_delays(delayed_spectrum("shih", row, n, 6.0), 0.0, -dz)
    assert np.max(np.abs(folded - applied.amplitudes)) <= 1e-15


def _peak_matrices(call, n: int) -> float:
    # tracemalloc peak of one call, after a warm-up call, in n x n complex matrices
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * n * n)


def test_sampling_working_set():
    # a meshgrid build holds 4.5 (shih) and 3.5 (gaussian pair) matrices at
    # its peak; building the envelope first and applying the delay phases
    # after it holds two.  The factored build writes the state, phases
    # included, into its one matrix.
    n = 1025
    grid = bp.make_grid(100.0, 6.0, n)
    # nonzero paths, as in the shih_scan rows, so the delay phases are part
    # of the build
    shih = {"center": 100.0, "sigma_p": 0.1, "delta_l": 2.5, "dz": 0.7}
    pair = bp.GaussianPairModel(center=100.0, sigma=1.0, pump_sigma=0.1)
    assert _peak_matrices(lambda: delayed_spectrum("shih", shih, n, 6.0), n) <= 1.25
    assert _peak_matrices(lambda: bp.gaussian_pair_spectrum(pair, grid), n) <= 1.25

    def delayed_pair():
        return bp.apply_path_delays(_gaussian_pair_state(pair, grid), 1.5, -0.7).spectrum()

    assert _peak_matrices(delayed_pair, n) <= 1.25


@pytest.mark.parametrize(
    "model,row",
    [
        ("shih", {"center": 90.0, "sigma_p": 0.01, "delta_l": 20.0, "dz": 3.0}),
        ("gaussian_pair", {"pump_sigma": 0.3, "dz": 1.5}),
    ],
)
def test_delayed_row_state_working_set(model, row):
    # the state of one delayed scan row, as the scans and the CLI build it
    n = 1025
    assert _peak_matrices(lambda: delayed_spectrum(model, row, n, 4.5), n) <= 1.25


@pytest.mark.parametrize("swept", ["dz", "dl"])
def test_exchange_reduction_working_set(swept):
    # the reduction keeps O(n) sums and one slab of rows, no n x n matrix
    n = 1025
    delta_l, dz = (20.0, 0.0) if swept == "dz" else (0.0, -3.0)
    row = {"center": 90.0, "sigma_p": 0.01, "delta_l": delta_l, "dz": dz}
    s = delayed_spectrum("shih", row, n, 4.5)
    assert _peak_matrices(lambda: exchange_sweep(s), n) <= 0.1


# scan bases (the state at swept value 0) of factored sources: (model, row)
_FACTORED_BASES = {
    "flat pair": ("gaussian_pair", {"sigma": 1.0, "center": 0.7}),
    "flat pair, paths": ("gaussian_pair", {"sigma": 1.0, "center": 0.7, "dz": 1.3}),
    "pumped pair": ("gaussian_pair", {"sigma": 1.3, "center": 0.7, "pump_sigma": 0.4}),
    "pumped pair, paths": (
        "gaussian_pair", {"sigma": 1.3, "center": 0.7, "pump_sigma": 0.4, "dz": -2.1}
    ),
    "shih dz base": ("shih", {"center": 90.0, "sigma_p": 0.01, "delta_l": 20.0}),
    "shih dl base": ("shih", {"center": 90.0, "sigma_p": 0.1, "dz": 2.5}),
}

# the first dark fringe of a shih dl sweep at center 90: dl = lambda / 4
_DARK_FRINGE = ("shih", {"center": 90.0, "sigma_p": 0.1}, math.pi / 180.0)


def _assert_sums_agree(state):
    factored, matrix = _factored_sums(state), _matrix_sums(state.spectrum())
    total = float(np.sum(matrix[0]))
    for name, new, old in zip(("r", "v", "T", "S"), factored, matrix):
        assert new.shape == old.shape, name
        assert np.max(np.abs(new - old)) <= 1e-15 * total, name


@pytest.mark.parametrize("n", [3, 257, 1025])
@pytest.mark.parametrize("base", sorted(_FACTORED_BASES))
def test_factored_sums_match_matrix_sums(base, n):
    # the sums of exchange_sweep from the factors and from the built state
    model, row = _FACTORED_BASES[base]
    state = delayed_state(model, row, n, 4.5)
    assert isinstance(state, _FactoredState)
    _assert_sums_agree(state)


# on 3 points the fringe's row keeps a relative norm of 3e-5 on a span of
# 1.5 sigma, but 6e-20 on 4.5 sigma, below the rounding of its O(n) norm
@pytest.mark.parametrize("n,span", [(3, 1.5), (257, 4.5), (1025, 4.5)])
def test_dark_fringe_row_reduces_the_scaled_factors(n, span):
    model, fixed, dl = _DARK_FRINGE
    base = delayed_state(model, fixed, n, span)
    a, b, tau = shih_row_factor(base.grid, dl)
    d = _plane_waves(base.grid, a, b, tau)
    factored, matrix = _factored_sums(base), _matrix_sums(base.spectrum())
    # the row's norm sum_i r_i |d_i|**2 is in the cancellation branch of exchange_sweep
    r_total = float(np.sum(matrix[0]))
    norm = float(np.sum(matrix[0] * np.abs(d) ** 2))
    assert norm < (abs(a) ** 2 + abs(b) ** 2) * r_total / _SWEEP_CANCELLATION
    for new, old in zip(factored[4](d), matrix[4](d)):
        assert abs(new - old) <= 1e-15 * r_total
    (p_factored,) = exchange_sweep(base)([a], [b], [tau])
    assert abs(p_factored - exchange_sweep(base.spectrum())([a], [b], [tau])[0]) <= 1e-15
    # the row's own state, reduced from its factors and as a matrix
    _assert_sums_agree(_FactoredState(base.grid, d * base.x, base.y, base.pump))


@pytest.mark.parametrize(
    "model,swept,fixed",
    [
        ("shih", "dz", {"center": 78.61835615608457, "sigma_p": 0.01, "delta_l": 20.0}),
        ("shih", "dl", {"center": 90.0, "sigma_p": 0.01, "dz": 2.5}),
        ("gaussian_pair", "dz", {"pump_sigma": 0.5}),
    ],
)
def test_scan_working_set(model, swept, fixed):
    # a scan of a factored source reduces the factors and never builds the
    # n x n state, which alone is one matrix
    n = 1025
    start, stop = (4.0, 15.0) if swept == "dl" else (-4.0, 4.0)
    spec = bp.ScanSpec(
        model=model, swept=swept, start=start, stop=stop, n_steps=31, fixed=fixed,
        grid_points=n, grid_span_sigmas=4.5,
    )
    assert _peak_matrices(lambda: bp.run_scan(spec), n) <= 0.15


@pytest.mark.parametrize(
    "swept,fixed,start,stop",
    [
        ("dz", {"center": 90.0, "sigma_p": 0.01, "delta_l": 20.0}, -30.0, 30.0),
        ("dl", {"center": 90.0, "sigma_p": 0.01, "dz": 2.5}, 4.0, 15.0),
    ],
)
def test_long_scan_rows_run_in_slabs(swept, fixed, start, stop):
    # 1001 rows on the largest grid are read off the reduction in slabs of
    # rows, so they stay under a tenth of one n x n matrix, as the reduction does
    n = 4095
    spec = bp.ScanSpec(
        model="shih", swept=swept, start=start, stop=stop, n_steps=1001, fixed=fixed,
        grid_points=n, grid_span_sigmas=4.5,
    )
    assert _peak_matrices(lambda: bp.run_scan(spec), n) <= 0.1


_BAD_WIDTHS = [0.0, -1.0, math.nan, math.inf, 1e-300, 1e-154, 1e154, 1e200]


@pytest.mark.parametrize("value", _BAD_WIDTHS)
def test_bandwidths_with_unrepresentable_exponents_rejected(value):
    grid = bp.make_grid(0.0, 6.0, 17)
    with pytest.raises(ValueError, match="sigma"):
        bp.GaussianPairModel(center=0.0, sigma=value)
    with pytest.raises(ValueError, match="pump_sigma"):
        bp.GaussianPairModel(center=0.0, sigma=1.0, pump_sigma=value)
    with pytest.raises(ValueError, match="sigma"):
        bp.ShihModel(center=90.0, sigma=value, sigma_p=0.1)
    with pytest.raises(ValueError, match="sigma_p"):
        bp.ShihModel(center=90.0, sigma=1.0, sigma_p=value)
    with pytest.raises(ValueError, match="sigma"):
        _delta_pump_state(value, grid)


def test_smallest_and_largest_representable_bandwidths_accepted():
    # 2*s**2 just inside the normal float range on both ends
    for s in (1.1e-154, 9e153):
        assert bp.GaussianPairModel(center=0.0, sigma=s).sigma == s


_BAD_PATHS = [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 0.0), (1e308, 0.0), (0.0, 1e308)]


@pytest.mark.parametrize("z1,z2", _BAD_PATHS)
def test_non_finite_path_delays_rejected(z1, z2):
    grid = bp.make_grid(0.0, 6.0, 17)
    pair = bp.GaussianPairModel(0.0, 1.0)
    s = bp.gaussian_pair_spectrum(pair, grid)
    with pytest.raises(bp.ConfigError, match="dz"):
        bp.apply_path_delays(s, z1, z2)
    with pytest.raises(bp.ConfigError, match="dz"):
        bp.apply_path_delays(_gaussian_pair_state(pair, grid), z1, z2)
    row = {"center": 90.0, "sigma_p": 0.1, "delta_l": 1.0, "dz": z1 - z2}
    with pytest.raises(bp.ConfigError, match="dz"):
        delayed_spectrum("shih", row, 17, 6.0)


@pytest.mark.parametrize("model", ["gaussian_pair", "shih", "delta_pump", "bell"])
@pytest.mark.parametrize("dz", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_row_delays_rejected(model, dz):
    fixed = {"shih": {"center": 90.0, "sigma_p": 0.1}, "bell": {"omega_a": -2.0, "omega_b": 2.0}}
    with pytest.raises(bp.ConfigError, match=r"\bdz\b"):
        delayed_spectrum(model, {**fixed.get(model, {}), "dz": dz}, 17, 6.0)


@pytest.mark.parametrize("dl", [math.inf, -math.inf, math.nan, 1e308])
def test_non_finite_path_difference_rejected(dl):
    grid = bp.make_grid(0.0, 6.0, 17)
    with pytest.raises(bp.ConfigError, match="dl"):
        delta_pump_row_factor(grid, dl, "even")
    with pytest.raises(bp.ConfigError, match="dl"):
        delayed_spectrum("delta_pump", {"dl": dl, "parity": "odd"}, 17, 6.0)
