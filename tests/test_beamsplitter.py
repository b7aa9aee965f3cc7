import math

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import biphoton as bp
from biphoton.beamsplitter import _decomposition_from_channels, _substitute_channels
from conftest import make_random_spectrum

seeds = st.integers(min_value=0, max_value=2**32 - 1)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


def random_params(rng) -> bp.BeamSplitterParams:
    theta, phi_tau, phi_rho = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3)
    return bp.BeamSplitterParams(theta=theta, phi_tau=phi_tau, phi_rho=phi_rho)


class TestBsMatrix:
    def test_transparent_is_identity(self):
        m = bp.bs_matrix(bp.BeamSplitterParams(theta=0.0))
        np.testing.assert_allclose(m, np.eye(2), atol=0)

    def test_balanced_matrix(self):
        m = bp.bs_matrix(bp.BeamSplitterParams.balanced())
        r = 1.0 / math.sqrt(2.0)
        np.testing.assert_allclose(m, [[r, r], [-r, r]], atol=1e-15)

    @hyp.given(theta=angles, phi_tau=angles, phi_rho=angles)
    def test_unitarity(self, theta, phi_tau, phi_rho):
        m = bp.bs_matrix(bp.BeamSplitterParams(theta, phi_tau, phi_rho))
        np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-14)

    def test_phi_is_derived(self):
        p = bp.BeamSplitterParams(theta=0.1, phi_tau=0.25, phi_rho=0.5)
        assert p.phi == 0.75


class TestBsInverse:
    def test_identity_is_self_inverse(self):
        p = bp.bs_inverse(bp.BeamSplitterParams(0.0, 0.0, 0.0))
        assert (p.theta, p.phi_tau, p.phi_rho) == (0.0, 0.0, 0.0)

    def test_matches_numeric_matrix_inverse(self):
        p = bp.BeamSplitterParams(theta=math.pi / 4.0, phi_tau=0.3, phi_rho=0.7)
        q = bp.bs_inverse(p)
        assert (q.theta, q.phi_tau, q.phi_rho) == (-math.pi / 4.0, -0.3, 0.7)
        np.testing.assert_allclose(
            bp.bs_matrix(q), np.linalg.inv(bp.bs_matrix(p)), atol=1e-14
        )

    @hyp.given(seed=seeds)
    def test_round_trip_restores_spectrum(self, seed):
        # same-port channels are defined up to an antisymmetric (null) part,
        # so the physical content is their symmetrization
        rng = np.random.default_rng(seed)
        s = make_random_spectrum(rng, 5)
        p = random_params(rng)
        back = bp.transform_decomposition(bp.transform(s, p), bp.bs_inverse(p))
        np.testing.assert_allclose(back.amp_12, s.amplitudes, atol=1e-12)
        np.testing.assert_allclose(back.amp_11 + back.amp_11.T, 0.0, atol=1e-12)
        np.testing.assert_allclose(back.amp_22 + back.amp_22.T, 0.0, atol=1e-12)
        assert back.p_11 < 1e-12 and back.p_22 < 1e-12


class TestTransform:
    def test_symmetric_balanced_coalesces(self, rng, balanced):
        sym = bp.symmetry_decompose(make_random_spectrum(rng, 7)).sym
        d = bp.transform(sym, balanced)
        assert d.p_coinc < 1e-12
        assert abs(d.p_11 - 0.5) < 1e-10
        assert abs(d.p_22 - 0.5) < 1e-10

    def test_antisymmetric_balanced_anticoalesces(self, rng, balanced):
        anti = bp.symmetry_decompose(make_random_spectrum(rng, 7)).antisym
        d = bp.transform(anti, balanced)
        assert abs(d.p_coinc - 1.0) < 1e-12
        assert d.p_11 < 1e-12 and d.p_22 < 1e-12

    def test_degenerate_cell_general_angle(self):
        # both photons at the same frequency: P = cos(2 theta)^2
        grid = bp.make_grid(0.0, 1.0, 3)
        raw = np.zeros((3, 3), complex)
        raw[1, 1] = 1.0
        s = bp.BiphotonSpectrum.from_array(grid, raw)
        for theta in (0.0, math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0, 1.1):
            d = bp.transform(s, bp.BeamSplitterParams(theta, 0.4, -0.9))
            assert abs(d.p_coinc - math.cos(2.0 * theta) ** 2) < 1e-12

    def test_channel_amplitudes_match_direct_construction(self, rng):
        s = make_random_spectrum(rng, 5)
        p = bp.BeamSplitterParams(theta=0.62, phi_tau=-0.8, phi_rho=1.7)
        d = bp.transform(s, p)
        c = s.amplitudes
        ct, st_ = math.cos(p.theta), math.sin(p.theta)
        phase = np.exp(1j * p.phi)
        np.testing.assert_allclose(d.amp_11, c * phase * ct * st_, atol=1e-14)
        np.testing.assert_allclose(d.amp_22, -c * np.conj(phase) * ct * st_, atol=1e-14)
        np.testing.assert_allclose(d.amp_12, c * ct**2 - c.T * st_**2, atol=1e-14)

    @pytest.mark.parametrize("theta", [0.0, 0.62, math.pi / 4.0, math.pi / 2.0, -2.1])
    def test_equals_substitution_with_empty_same_port_channels(self, rng, theta):
        # the direct channels against the general substitution, bit for bit
        s = make_random_spectrum(rng, 9)
        p = bp.BeamSplitterParams(theta=theta, phi_tau=0.3, phi_rho=-1.1)
        zero = np.zeros_like(s.amplitudes)
        g11, g12, g22 = _substitute_channels(
            zero, s.amplitudes, zero, bp.creation_substitution(p)
        )
        d = bp.transform(s, p)
        for got, want in ((d.amp_11, g11), (d.amp_12, g12), (d.amp_22, g22)):
            assert np.array_equal(got, want)
        oracle = _decomposition_from_channels(s.grid, g11, g12, g22)
        assert (d.p_11, d.p_22, d.p_coinc) == (oracle.p_11, oracle.p_22, oracle.p_coinc)

    def test_transparent_splitter_passes_through(self, rng):
        s = make_random_spectrum(rng, 5)
        d = bp.transform(s, bp.BeamSplitterParams(theta=0.0))
        np.testing.assert_allclose(d.amp_12, s.amplitudes, atol=0)
        assert d.p_11 == 0.0 and d.p_22 == 0.0
        assert abs(d.p_coinc - 1.0) < 1e-12

    @hyp.given(seed=seeds)
    def test_probability_conservation(self, seed):
        rng = np.random.default_rng(seed)
        s = make_random_spectrum(rng, 5)
        d = bp.transform(s, random_params(rng))
        assert abs(d.p_11 + d.p_22 + d.p_coinc - 1.0) < 1e-10
        assert -1e-12 <= d.p_11 and -1e-12 <= d.p_22 and -1e-12 <= d.p_coinc

    @hyp.given(seed=seeds, phi_tau=angles, phi_rho=angles)
    def test_balanced_coincidence_ignores_phases(self, seed, phi_tau, phi_rho):
        s = make_random_spectrum(np.random.default_rng(seed), 5)
        p_ref = bp.coincidence_probability(s, bp.BeamSplitterParams.balanced())
        p = bp.coincidence_probability(
            s, bp.BeamSplitterParams(math.pi / 4.0, phi_tau, phi_rho)
        )
        assert abs(p - p_ref) < 1e-12

    def test_output_norm_conserved_through_composition(self, rng):
        # a second splitter redistributes the channels but keeps total 1
        s = make_random_spectrum(rng, 5)
        d = bp.transform(s, random_params(rng))
        d2 = bp.transform_decomposition(d, random_params(rng))
        assert abs(d2.p_11 + d2.p_22 + d2.p_coinc - 1.0) < 1e-10


class TestCoincidenceProbability:
    def test_equals_transform_channel(self, rng):
        s = make_random_spectrum(rng, 7)
        p = random_params(rng)
        assert abs(bp.coincidence_probability(s, p) - bp.transform(s, p).p_coinc) < 1e-13

    def test_balanced_equals_elementwise_difference_sum(self, rng, balanced):
        s = make_random_spectrum(rng, 9)
        c = s.amplitudes
        oracle = 0.25 * float(np.sum(np.abs(c - c.T) ** 2))
        assert abs(bp.coincidence_probability(s, balanced) - oracle) < 1e-12

    def test_symmetric_is_zero_antisymmetric_is_one(self, rng, balanced):
        parts = bp.symmetry_decompose(make_random_spectrum(rng, 5))
        assert bp.coincidence_probability(parts.sym, balanced) < 1e-12
        assert abs(bp.coincidence_probability(parts.antisym, balanced) - 1.0) < 1e-12


class TestTrappingFidelity:
    def test_antisymmetric_is_trapped(self, rng):
        anti = bp.symmetry_decompose(make_random_spectrum(rng, 7)).antisym
        assert abs(bp.trapping_fidelity(anti) - 1.0) < 1e-12

    def test_symmetric_has_zero_fidelity(self, rng):
        sym = bp.symmetry_decompose(make_random_spectrum(rng, 7)).sym
        assert bp.trapping_fidelity(sym) < 1e-12

    @hyp.given(seed=seeds, w=st.floats(min_value=0.0, max_value=1.0))
    def test_mixed_symmetry_gives_weight_squared(self, seed, w):
        # overlap picks out the antisymmetric part twice: fidelity = w^2
        rng = np.random.default_rng(seed)
        parts = bp.symmetry_decompose(make_random_spectrum(rng, 5))
        mixed_raw = (
            math.sqrt(1.0 - w) * parts.sym.amplitudes
            + math.sqrt(w) * parts.antisym.amplitudes
        )
        mixed = bp.BiphotonSpectrum.from_array(parts.sym.grid, mixed_raw)
        assert abs(bp.trapping_fidelity(mixed) - w**2) < 1e-12

    def test_matches_balanced_click_click_overlap(self, rng, balanced):
        s = make_random_spectrum(rng, 7)
        e = bp.transform(s, balanced).amp_12
        oracle = abs(np.vdot(s.amplitudes, e)) ** 2
        assert abs(bp.trapping_fidelity(s) - oracle) < 1e-12
