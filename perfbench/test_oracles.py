"""Known values of the benchmark's oracles.

    python3 -m pytest -q perfbench/test_oracles.py
"""

import math

import numpy as np
import pytest

import oracles
import workloads


def test_hom_dip_known_values():
    assert oracles.hom_dip(1.0, 1.0) == pytest.approx(0.19673467014368329, abs=1e-16)
    assert oracles.hom_dip(2.0, 0.0) == 0.0
    assert oracles.hom_dip(1.0, 40.0) == 0.5
    # only sigma*dz matters
    assert oracles.hom_dip(2.0, 0.25) == pytest.approx(oracles.hom_dip(0.5, 1.0), abs=1e-16)


def test_two_path_exact_reduces_to_the_dip_without_path_difference():
    for dz in (-2.0, -0.5, 0.0, 1.0, 3.0):
        assert oracles.two_path_exact(1.0, 0.1, 90.0, 0.0, dz) == pytest.approx(
            oracles.hom_dip(1.0, dz), abs=1e-15)


def test_two_path_reduced_is_the_narrow_pump_wide_separation_limit():
    center = 1001.0 * math.pi / 40.0  # 4 dl / lambda = 1001 at dl = 20
    for dz in (-3.0, 0.0, 2.0):
        assert oracles.two_path_reduced(1.0, center, 20.0, dz) == pytest.approx(
            oracles.two_path_exact(1.0, 1e-8, center, 20.0, dz), abs=1e-12)
    # odd parity gives the anti-coalescence peak at zero delay
    assert oracles.two_path_exact(1.0, 1e-8, center, 20.0, 0.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("dl,dz", [(1.0, 0.0), (5.0, 3.0), (20.0, -20.0), (7.3, 6.1)])
def test_two_path_exact_matches_quadrature_of_the_two_path_amplitude(dl, dz):
    beta, n, span = 0.1, 257, 4.5
    center = 63.0 * math.pi / (2.0 * dl)
    w = oracles.frequencies(center, span, n)
    w1, w2 = np.meshgrid(w, w, indexing="ij")
    amp = (np.exp(-((w1 + w2 - 2 * center) ** 2) / (2 * beta**2)
                  - ((w1 - center) ** 2 + (w2 - center) ** 2) / 2)
           * np.cos(w1 * dl) * np.exp(1j * w1 * dz))
    c = oracles.normalized(amp)
    assert oracles.antisymmetric_weight(c) == pytest.approx(
        oracles.two_path_exact(1.0, beta, center, dl, dz), abs=1e-3)


def test_gaussian_pair_dip_on_the_default_grid():
    w = oracles.frequencies(0.5, 6.0, 257)
    for pump in (None, 0.7):
        c = oracles.gaussian_pair(w, 0.5, 1.0, pump, dz=1.0)
        assert oracles.antisymmetric_weight(c) == pytest.approx(0.19673467014368329, abs=1e-6)
    assert oracles.rank1_fraction(oracles.gaussian_pair(w, 0.5, 1.0, dz=1.0)) == pytest.approx(
        1.0, abs=1e-12)


def test_anti_diagonal_parities():
    w = oracles.frequencies(0.0, 6.0, 65)
    odd = oracles.anti_diagonal(w, 0.0, 1.0, 1.5, "odd")
    even = oracles.anti_diagonal(w, 0.0, 1.0, 1.5, "even")
    assert oracles.antisymmetric_weight(odd) == pytest.approx(1.0, abs=1e-14)
    assert oracles.trapping_fidelity(odd) == pytest.approx(1.0, abs=1e-14)
    assert oracles.antisymmetric_weight(even) == pytest.approx(0.0, abs=1e-14)
    assert oracles.trapping_fidelity(even) == pytest.approx(0.0, abs=1e-14)
    # singular values of an anti-diagonal matrix are the moduli of its entries
    profile = np.abs(odd[np.arange(65), 64 - np.arange(65)]) ** 2
    assert oracles.rank1_fraction(odd) == pytest.approx(profile.max(), abs=1e-12)


def test_bell_state_weights():
    c = np.zeros((5, 5), dtype=complex)
    c[1, 3], c[3, 1] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    assert oracles.antisymmetric_weight(c) == pytest.approx(1.0, abs=1e-15)
    assert oracles.trapping_fidelity(c) == pytest.approx(1.0, abs=1e-15)
    assert oracles.rank1_fraction(c) == pytest.approx(0.5, abs=1e-15)


def test_fft_time_domain_matches_the_direct_sum():
    def direct_sum(w, c):
        n = w.size
        t = (np.arange(n) - (n - 1) // 2) * (2.0 * math.pi / (n * (w[1] - w[0])))
        f = np.exp(-1j * np.outer(t, w))
        return f @ c @ f.T

    gen = np.random.default_rng(7)
    for n in (3, 33, 65):
        w = oracles.frequencies(-1.3, 4.0, n)
        c = oracles.normalized(gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n)))
        t, values = oracles.time_domain(w, c)
        assert np.max(np.abs(values - direct_sum(w, c))) < 1e-12
        assert t[(n - 1) // 2] == 0.0
        assert np.sum(np.abs(values) ** 2) / n**2 == pytest.approx(1.0, abs=1e-13)


def test_random_spectrum_has_the_requested_antisymmetric_weight():
    gen = np.random.default_rng(3)
    for weight in (0.05, 0.5, 0.95):
        c = workloads.random_spectrum(gen, 33, weight)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-14)
        assert oracles.antisymmetric_weight(c) == pytest.approx(weight, abs=1e-14)


def test_spectrum_file_writer_matches_the_documented_example(tmp_path):
    c = np.zeros((3, 3), dtype=complex)
    c[0, 1], c[1, 0] = 1 / math.sqrt(2), -1 / math.sqrt(2)
    path = tmp_path / "bell.csv"
    workloads.write_spectrum_file(str(path), np.array([-1.0, 0.0, 1.0]), c)
    assert path.read_text() == (
        "omega,-1,0,1\n"
        "-1,0+0j,0.70710678118654746+0j,0+0j\n"
        "0,-0.70710678118654746+0j,0+0j,0+0j\n"
        "1,0+0j,0+0j,0+0j\n"
    )
