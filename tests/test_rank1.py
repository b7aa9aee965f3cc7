"""The rank-1 fraction from Lanczos on c^H c, against the full SVD and the
geometric Schmidt spectrum of the pumped Gaussian pair."""

import math

import numpy as np
import pytest

import biphoton as bp
from biphoton import spectrum
from reference import delayed_spectrum

TOL = 1e-14

# name -> (model, fixed, grid_points, grid_span_sigmas)
MODEL_CASES = {
    "gaussian_flat": ("gaussian_pair", {"sigma": 1.0, "center": 0.4}, 513, 6.0),
    "gaussian_pumped": ("gaussian_pair", {"sigma": 1.3, "pump_sigma": 0.65}, 513, 6.0),
    "shih_beta_0.01": (
        "shih", {"center": 78.61835615608457, "sigma_p": 0.01, "delta_l": 20.0}, 1025, 4.5,
    ),
    "shih_beta_0.1": ("shih", {"center": 94.2, "sigma_p": 0.1, "delta_l": 5.0}, 257, 4.5),
    "delta_pump_even": ("delta_pump", {"dl": 1.5, "parity": "even"}, 513, 6.0),
    "delta_pump_odd": ("delta_pump", {"dl": 2.5, "parity": "odd", "center": -1.0}, 257, 6.0),
    "bell": ("bell", {"omega_a": -2.0, "omega_b": 3.0}, 513, 6.0),
}


def svd_fraction(c):
    svals = np.linalg.svd(c, compute_uv=False)
    return float(svals[0] ** 2) / float(np.sum(svals**2))


def model_amplitudes(case):
    model, fixed, n, span = MODEL_CASES[case]
    return delayed_spectrum(model, fixed, n, span).amplitudes


def random_amplitudes(seed, n):
    rng = np.random.default_rng(seed)
    grid = bp.make_grid(0.0, 1.0, n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return bp.BiphotonSpectrum.from_array(grid, raw).amplitudes


def assert_singular_pair(c):
    fraction, sigma, u, v = spectrum._leading_singular_pair(c)
    assert abs(fraction - svd_fraction(c)) <= TOL
    assert abs(np.linalg.norm(u) - 1.0) <= TOL and abs(np.linalg.norm(v) - 1.0) <= TOL
    np.testing.assert_allclose(c @ v, sigma * u, rtol=0, atol=1e-12)
    return fraction


class TestAgainstSvd:
    @pytest.mark.parametrize("case", sorted(MODEL_CASES))
    def test_models(self, case):
        assert_singular_pair(model_amplitudes(case))

    def test_spectrum_file(self, tmp_path):
        path = str(tmp_path / "random.csv")
        grid = bp.make_grid(1.5, 4.0, 129)
        bp.save_spectrum(bp.BiphotonSpectrum.from_array(grid, random_amplitudes(3, 129)), path)
        assert_singular_pair(bp.load_spectrum(path).amplitudes)

    @pytest.mark.parametrize("seed,n", [(21, 257), (22, 1025)])
    def test_random_spectra(self, seed, n):
        assert_singular_pair(random_amplitudes(seed, n))

    def test_scaled_unitary(self):
        # every singular value equal: the fraction is 1/n
        rng = np.random.default_rng(7)
        q, _ = np.linalg.qr(rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65)))
        fraction = assert_singular_pair(q / math.sqrt(65.0))
        assert abs(fraction - 1.0 / 65.0) <= TOL

    def test_exactly_rank_one(self):
        rng = np.random.default_rng(8)
        a, b = (rng.standard_normal(129) + 1j * rng.standard_normal(129) for _ in range(2))
        c = np.outer(a, b)
        c /= math.sqrt(float(np.sum(np.abs(c) ** 2)))
        assert abs(assert_singular_pair(c) - 1.0) <= TOL


class TestPumpedGaussianSchmidtWeight:
    # The double-Gaussian Schmidt spectrum is geometric with ratio
    # ((r - 1)/(r + 1))**2, r = sqrt(1 + 2/beta**2), so the leading weight
    # is 4r/(r + 1)**2 (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).
    @pytest.mark.parametrize("n", [513, 1025])
    @pytest.mark.parametrize("beta", [0.1, 0.5, 1.0, 2.0])
    def test_closed_form(self, beta, n):
        grid = bp.make_grid(0.0, 6.0, n)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0, pump_sigma=beta), grid)
        r = math.sqrt(1.0 + 2.0 / beta**2)
        assert abs(spectrum._leading_singular_pair(s)[0] - 4.0 * r / (r + 1.0) ** 2) <= TOL


class TestFallbackAndReproducibility:
    def test_svd_fallback_when_budget_exhausted(self, monkeypatch):
        c = model_amplitudes("shih_beta_0.1")
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            calls.append(a.shape)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(spectrum, "_LANCZOS_STEPS", 1)
        monkeypatch.setattr(spectrum.np.linalg, "svd", counting_svd)
        fraction, sigma, u, v = spectrum._leading_singular_pair(c)
        assert calls == [c.shape]
        monkeypatch.undo()
        assert abs(fraction - svd_fraction(c)) <= TOL
        np.testing.assert_allclose(c @ v, sigma * u, rtol=0, atol=1e-12)

    def test_no_svd_within_budget(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran")

        monkeypatch.setattr(spectrum.np.linalg, "svd", no_svd)
        for case in ("gaussian_pumped", "delta_pump_odd", "bell"):
            spectrum._leading_singular_pair(model_amplitudes(case))

    def test_repeated_calls_are_bit_identical(self):
        c = random_amplitudes(31, 257)
        first = spectrum._leading_singular_pair(c)
        second = spectrum._leading_singular_pair(c)
        assert first[:2] == second[:2]
        assert np.array_equal(first[2], second[2]) and np.array_equal(first[3], second[3])
