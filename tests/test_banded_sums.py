"""The diagonal sums ``T_k`` of a factored state, summed along the anti-diagonals
of the pump's support (a thin band, a wide one or, for a flat pump, the whole
triangle), against the whole-triangle slab loop of ``reference.py``; the FFT
length of the reduction and its memory."""

import tracemalloc

import numpy as np
import pytest

import biphoton as bp
from biphoton.spectrum import _FactoredState, _factored_row_sums, _factored_sums, _fft_length
from reference import delayed_state, factored_diagonal_sums

CENTER = 78.61835615608457

# scan bases of model sources with a flat or a Gaussian pump: (model, row)
_MODEL_STATES = {
    "flat, dz 0": ("gaussian_pair", {"center": 0.7, "dz": 0.0}),
    "flat, dz 1.3": ("gaussian_pair", {"center": 0.7, "dz": 1.3}),
    "shih beta 0.01": ("shih", {"center": CENTER, "sigma_p": 0.01, "delta_l": 0.4, "dz": 2.5}),
    "shih beta 0.1": ("shih", {"center": CENTER, "sigma_p": 0.1, "delta_l": 0.4, "dz": -1.5}),
    "pair beta 0.3": ("gaussian_pair", {"center": 0.7, "pump_sigma": 0.3, "dz": 1.3}),
    "pair beta 3": ("gaussian_pair", {"center": 0.7, "pump_sigma": 3.0, "dz": -2.1}),
}


def _gaussian_band(center: float, width: float, scale: float = 4.0):
    # a pump over the 2n - 1 sums m that is exactly 0 more than `width` from `center`
    def pump(n: int) -> np.ndarray:
        m = np.arange(2 * n - 1, dtype=float)
        d = m - center(n)
        return np.where(np.abs(d) <= width, np.exp(-((d / scale) ** 2)), 0.0)

    return pump


def _band_fraction(fraction: float, where: str):
    # a Gaussian pump over `fraction` of the 2n - 1 sums, centred or touching sum 0
    def pump(n: int) -> np.ndarray:
        width = fraction * (2 * n - 1) / 2
        center = n - 1 if where == "centred" else width
        return _gaussian_band(lambda _: center, width, width / 2)(n)

    return pump


def _entries(*where):
    # a pump that is nonzero on the given entries only
    def pump(n: int) -> np.ndarray:
        p = np.zeros(2 * n - 1)
        for k, m in enumerate(where):
            p[m(n)] = 1.0 / (k + 1)
        return p

    return pump


# pumps put on generic complex photons: the support [lo, hi) of P = p**2 at
# either end of the 2n - 1 sums, off the centre, of either parity, or on two entries
_PUMPS = {
    "wide, off-centre, touching 0 and 2n-2": lambda n: np.exp(
        -(((np.arange(2 * n - 1) - 0.6 * (n - 1)) / n) ** 2)
    ),
    "narrow at index 0": _gaussian_band(lambda n: 1.0, 3.0),
    "narrow at index 2n-2": _gaussian_band(lambda n: 2 * n - 3.0, 3.0),
    "narrow, even lo": _gaussian_band(lambda n: 2 * (n // 3) + 5.0, 5.0),
    "narrow, odd lo": _gaussian_band(lambda n: 2 * (n // 3) + 6.0, 5.0),
    "two entries": _entries(lambda n: n - 2, lambda n: n + 1),
    "two entries at the ends": _entries(lambda n: 0, lambda n: 2 * n - 2),
}


def _photons(n: int) -> tuple[bp.FrequencyGrid, np.ndarray, np.ndarray]:
    grid = bp.make_grid(0.0, 4.5, n)
    nu = grid.offsets()
    # no decay to the grid's ends, where the edge pumps keep their cells
    x = np.exp(0.7j * nu) * (1.0 + 0.3 * np.cos(2.0 * nu))
    y = np.exp(-1.9j * nu) * (1.0 + 0.5j * np.cos(3.0 * nu))
    return grid, x, y


def _state(name: str, n: int) -> _FactoredState:
    if name in _MODEL_STATES:
        model, row = _MODEL_STATES[name]
        return delayed_state(model, row, n, 4.5)
    grid, x, y = _photons(n)
    return _FactoredState(grid, x, y, np.sqrt(_PUMPS[name](n)))


def _total(f: _FactoredState) -> float:
    return float(np.sum(_factored_row_sums(f)(f.x)[0]))


@pytest.mark.parametrize("n", [3, 257, 1025, 4095])
@pytest.mark.parametrize("name", [*_MODEL_STATES, *_PUMPS])
def test_banded_sums_match_the_whole_triangle(name, n):
    f = _state(name, n)
    assert (f.pump is None) == name.startswith("flat")
    t = _factored_sums(f)[2]
    oracle = factored_diagonal_sums(f) / _total(f)
    assert t.shape == oracle.shape
    assert np.max(np.abs(t - oracle)) <= 1e-15
    assert np.any(t != 0.0) or not np.any(oracle != 0.0)


@pytest.mark.parametrize("n", [257, 1025, 4095])
@pytest.mark.parametrize("where", ["centred", "touching 0"])
@pytest.mark.parametrize("fraction", [0.05, 0.3, 0.5])
def test_band_fractions_match_the_whole_triangle(fraction, where, n):
    grid, x, y = _photons(n)
    f = _FactoredState(grid, x, y, np.sqrt(_band_fraction(fraction, where)(n)))
    t = _factored_sums(f)[2]
    assert np.max(np.abs(t - factored_diagonal_sums(f) / _total(f))) <= 1e-15


def test_fft_length_is_the_smallest_5_smooth_length():
    def smooth(k: int) -> bool:
        for radix in (2, 3, 5):
            while k % radix == 0:
                k //= radix
        return k == 1

    for n in range(3, 4096, 2):
        length = _fft_length(2 * n - 1)
        assert smooth(length) and length >= 2 * n - 1
        assert not any(smooth(k) for k in range(2 * n - 1, length))
        assert length <= 1 << (2 * n - 2).bit_length()


@pytest.mark.parametrize("pump", ["narrow", "0.3", "full", "flat"])
def test_sums_at_4095_points_hold_no_matrix(pump):
    n = 4095
    if pump == "flat":
        f = _state("flat, dz 1.3", n)
    else:
        grid, x, y = _photons(n)
        fraction = {"narrow": 0.02, "0.3": 0.3, "full": 1.0}[pump]
        f = _FactoredState(grid, x, y, np.sqrt(_band_fraction(fraction, "centred")(n)))
    _factored_sums(f)
    tracemalloc.start()
    try:
        _factored_sums(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 4095 x 4095 complex matrix is 256 MiB
    assert peak < 4 * 2**20
