"""Every row of the one batched pass of ``exchange_sweep`` against the per-row
kernel of ``reference.py``, on every source and both sweeps."""

import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.models import delta_pump_row_factor, shih_row_factor
from biphoton.scans import MODELS, _delayed_state, model_params
from biphoton.spectrum import _SWEEP_CANCELLATION, _plane_waves, _row_sums, exchange_sweep
from reference import delayed_state, exchange_sweep_row

TOL = 1e-15
ROWS = 81

# the first dark fringe of a shih dl sweep at center 90: dl = lambda / 4
FRINGE = math.pi / 180.0

# (model, swept, fixed parameters, swept values, grid span, exact rows); dz
# sweeps hold dz = 0, where a symmetric source reads exactly 0
_SWEEPS = {
    "flat pair dz": ("gaussian_pair", "dz", {"center": 0.7}, (-5.0, 5.0), 4.5, {0.0: 1}),
    "pumped pair dz": (
        "gaussian_pair", "dz", {"center": 0.7, "pump_sigma": 0.4}, (-5.0, 5.0), 4.5, {0.0: 1}
    ),
    "shih dz": (
        "shih", "dz", {"center": 90.0, "sigma_p": 0.1, "delta_l": 3.0}, (-8.0, 8.0), 4.5, {}
    ),
    "shih dl": (
        "shih", "dl", {"center": 90.0, "sigma_p": 0.01, "dz": 2.5}, (0.0, 20.0), 4.5, {}
    ),
    # through the first dark fringe, where rows take the cancellation branch;
    # on 3 points a span of 4.5 sigma leaves the fringe row no norm
    "shih dark fringe": (
        "shih", "dl", {"center": 90.0, "sigma_p": 0.1}, (FRINGE / 2, 1.5 * FRINGE), 1.5, {}
    ),
    # the even profile is exchange-symmetric at every dl, the odd one
    # antisymmetric; a delay leaves an antisymmetric state so only at dz = 0
    "even delta pump dl": (
        "delta_pump", "dl", {"sigma": 0.8, "parity": "even"}, (-2.0, 3.0), 6.0, {0.0: ROWS}
    ),
    "odd delta pump dl": (
        "delta_pump", "dl", {"sigma": 0.8, "parity": "odd"}, (0.25, 3.0), 6.0, {1.0: ROWS}
    ),
    "odd delta pump dz": (
        "delta_pump", "dz", {"dl": 1.0, "parity": "odd"}, (-5.0, 5.0), 6.0, {1.0: 1}
    ),
    "bell dz": ("bell", "dz", {"omega_a": -2.0, "omega_b": 2.0}, (-5.0, 5.0), 6.0, {1.0: 1}),
}


def _model_rows(name, n):
    """The scan base of a sweep on ``n`` points, its rows' plane-wave factors and its floor."""
    model, swept, fixed, (start, stop), span, _ = _SWEEPS[name]
    entry = MODELS[model]
    values = np.linspace(start, stop, ROWS)
    if swept == "dz":
        base = delayed_state(model, {**fixed, "dz": 0.0}, n, span)
        return base, [(1.0, 0.0, dz) for dz in values], entry.row_floor
    # a dl sweep scales the state without a path difference
    row = {k: v for k, v in model_params(model, fixed).items() if k != entry.dl_key}
    base = _delayed_state(model, row, n, span)
    if model == "shih":
        factors = [shih_row_factor(base.grid, dl) for dl in values]
    else:
        factors = [delta_pump_row_factor(base.grid, dl, fixed["parity"]) for dl in values]
    return base, factors, entry.row_floor


def _file_rows(tmp_path, n):
    """A random spectrum file and random rows: delays, then pairs of complex plane waves."""
    rng = np.random.default_rng(n)
    grid = bp.make_grid(0.3, 3.0, n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    path = tmp_path / "spectrum.csv"
    bp.save_spectrum(bp.BiphotonSpectrum.from_array(grid, raw), str(path))
    base = delayed_state("spectrum_file", {"path": str(path), "dz": 0.0}, n, 4.5)
    waves = rng.standard_normal((ROWS, 2)) + 1j * rng.standard_normal((ROWS, 2))
    waves[: ROWS // 2, :] = (1.0, 0.0)
    return base, list(zip(waves[:, 0], waves[:, 1], np.linspace(-4.0, 4.0, ROWS))), 1e-300


def _assert_rows_match(base, factors, floor):
    """Rows against the per-row kernel; returns them and each row's cancellation ratio."""
    a, b, tau = (np.array(x) for x in zip(*factors))
    kernel = exchange_sweep(base, floor)
    rows = kernel(a, b, tau)
    row = exchange_sweep_row(base, floor)
    want = np.array([row(*f) for f in factors])
    # (|a|^2 + |b|^2) sum_i r_i / N: both kernels read a row off O(n) terms
    # that cancel by this ratio, up to _SWEEP_CANCELLATION, each with an error
    # of ~2e-16 times it, so rows whose norm cancels past 4x get that error
    r = _row_sums(base)[0]
    norms = np.array([np.sum(r * np.abs(_plane_waves(base.grid, *f)) ** 2) for f in factors])
    ratio = (np.abs(a) ** 2 + np.abs(b) ** 2) * np.sum(r) / norms
    assert np.all(np.abs(rows - want) <= TOL * np.maximum(1.0, ratio / 4.0))
    # the exact zeros and ones of the per-row kernel stay exact
    assert np.all(rows[want == 0.0] == 0.0) and np.all(rows[want == 1.0] == 1.0)
    # a batch of one gives each row the bits it has in the whole batch
    single = [kernel([ai], [bi], [ti])[0] for ai, bi, ti in factors]
    assert single == rows.tolist()
    return rows, ratio


@pytest.mark.parametrize("n", [3, 33, 257, 1025, 4095])
@pytest.mark.parametrize("sweep", sorted(_SWEEPS))
def test_batched_rows_match_the_per_row_kernel(sweep, n):
    rows, ratio = _assert_rows_match(*_model_rows(sweep, n))
    for value, count in _SWEEPS[sweep][5].items():
        assert np.count_nonzero(rows == value) == count
    if sweep == "shih dark fringe":
        assert np.max(ratio) > _SWEEP_CANCELLATION


# a spectrum file of n**2 cells in text, so the largest grids are left out
@pytest.mark.parametrize("n", [3, 33, 257])
def test_spectrum_file_rows_match_the_per_row_kernel(tmp_path, n):
    _assert_rows_match(*_file_rows(tmp_path, n))
