import math
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import biphoton as bp
from biphoton.beamsplitter import (
    _substitute_channels,
    exchange_report,
)
from conftest import make_random_spectrum
from reference import delayed_spectrum, symmetry_decompose

seeds = st.integers(min_value=0, max_value=2**32 - 1)
angles = st.floats(min_value=-2.0 * math.pi, max_value=2.0 * math.pi)


def same_port_norm(d: np.ndarray) -> float:
    """Bosonic norm ``Re sum conj(d) (d + d^T)`` of a same-port channel, cell by cell."""
    return float(np.real(np.sum(np.conj(d) * (d + d.T))))


def channel_norms(g11, g12, g22) -> tuple[float, float, float]:
    """``(p_11, p_22, p_coinc)`` as the elementwise norms of the three channels."""
    return same_port_norm(g11), same_port_norm(g22), float(np.sum(np.abs(g12) ** 2))


def channel_probabilities(c: np.ndarray, p: bp.BeamSplitterParams) -> tuple[float, float, float]:
    """The output probabilities of ``c`` from its three channel matrices."""
    (u, v), (w, x) = bp.creation_substitution(p)
    return channel_norms(u * w * c, u * x * c + v * w * c.T, v * x * c)


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
        sym = symmetry_decompose(make_random_spectrum(rng, 7)).sym
        d = bp.transform(sym, balanced)
        assert d.p_coinc < 1e-12
        assert abs(d.p_11 - 0.5) < 1e-10
        assert abs(d.p_22 - 0.5) < 1e-10

    def test_antisymmetric_balanced_anticoalesces(self, rng, balanced):
        anti = symmetry_decompose(make_random_spectrum(rng, 7)).antisym
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
        # the combined coalescence phase phi = phi_tau + phi_rho
        phase = np.exp(1j * (p.phi_tau + p.phi_rho))
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
        # the probabilities come from the exchange weights, not the channels
        oracle = bp.transform_decomposition(
            bp.OutputDecomposition(s.grid, zero, zero, s.amplitudes, 0.0, 0.0, 1.0), p
        )
        got = (d.p_11, d.p_22, d.p_coinc)
        for want in (channel_norms(g11, g12, g22), (oracle.p_11, oracle.p_22, oracle.p_coinc)):
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15

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
        parts = symmetry_decompose(make_random_spectrum(rng, 5))
        assert bp.coincidence_probability(parts.sym, balanced) < 1e-12
        assert abs(bp.coincidence_probability(parts.antisym, balanced) - 1.0) < 1e-12


class TestTrappingFidelity:
    def test_antisymmetric_is_trapped(self, rng):
        anti = symmetry_decompose(make_random_spectrum(rng, 7)).antisym
        assert abs(bp.trapping_fidelity(anti) - 1.0) < 1e-12

    def test_symmetric_has_zero_fidelity(self, rng):
        sym = symmetry_decompose(make_random_spectrum(rng, 7)).sym
        assert bp.trapping_fidelity(sym) < 1e-12

    @hyp.given(seed=seeds, w=st.floats(min_value=0.0, max_value=1.0))
    def test_mixed_symmetry_gives_weight_squared(self, seed, w):
        # overlap picks out the antisymmetric part twice: fidelity = w^2
        rng = np.random.default_rng(seed)
        parts = symmetry_decompose(make_random_spectrum(rng, 5))
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


# every model source as an input state, with a delay where the model takes one
MODEL_ROWS = {
    "pair-flat": ("gaussian_pair", {"sigma": 1.3, "center": 0.4, "dz": 0.9}),
    "pair-pumped": ("gaussian_pair", {"pump_sigma": 0.7, "dz": 1.1}),
    "shih": ("shih", {"center": 78.61835615608457, "sigma_p": 0.1, "delta_l": 5.0, "dz": 1.2}),
    "delta-pump-even": ("delta_pump", {"dl": 1.5}),
    "delta-pump-odd": ("delta_pump", {"dl": 1.5, "parity": "odd"}),
    "bell": ("bell", {"omega_a": -2.3, "omega_b": 1.7}),
}
OFF_BALANCE = [
    bp.BeamSplitterParams.balanced(),
    bp.BeamSplitterParams(theta=0.62, phi_tau=0.3, phi_rho=-1.1),
    bp.BeamSplitterParams(theta=-2.1, phi_tau=1.7, phi_rho=0.4),
]


def model_state(name: str, n: int = 257) -> bp.BiphotonSpectrum:
    model, row = MODEL_ROWS[name]
    return delayed_spectrum(model, row, n, 6.0)


def report_probabilities(s, p) -> tuple[float, float, float]:
    r = exchange_report(s, p)
    return r["p_11"], r["p_22"], r["p_coinc"]


class TestExchangeProbabilities:
    """Every probability from the two exchange weights, against the channel norms."""

    def check(self, s: bp.BiphotonSpectrum) -> None:
        for p in OFF_BALANCE:
            d = bp.transform(s, p)
            got = (d.p_11, d.p_22, d.p_coinc)
            want = channel_probabilities(s.amplitudes, p)
            assert np.max(np.abs(np.subtract(got, want))) <= 1e-15
            # one helper: the report, transform and coincidence_probability agree bit for bit
            assert report_probabilities(s, p) == got
            assert bp.coincidence_probability(s, p) == d.p_coinc

    @pytest.mark.parametrize("n", [3, 257, 1025])
    def test_random_matrices(self, n):
        self.check(make_random_spectrum(np.random.default_rng(n), n))

    @pytest.mark.parametrize("name", sorted(MODEL_ROWS))
    def test_model_states(self, name):
        self.check(model_state(name))

    @pytest.mark.parametrize("n", [257, 513, 1025])
    def test_report_scalars_against_exact_sums(self, n):
        # exchange_overlap and trapping_fidelity against correctly rounded
        # sums; near 1 (the odd delta pump) the bound is under two ulps
        rng = np.random.default_rng(n + 1)
        names = ["pair-flat", "pair-pumped", "delta-pump-odd"]
        for s in [make_random_spectrum(rng, n)] + [model_state(name, n) for name in names]:
            c = s.amplitudes
            overlap = math.fsum(np.real(np.conj(c) * c.T).ravel())
            diff = (c - c.T).view(float).ravel()
            anti = 0.25 * math.fsum(diff * diff)
            r = exchange_report(s, bp.BeamSplitterParams.balanced())
            assert abs(r["exchange_overlap"] - overlap) <= 4e-16
            assert abs(r["trapping_fidelity"] - anti * anti) <= 4e-16
            assert abs(bp.trapping_fidelity(s) - anti * anti) <= 4e-16
            assert abs(r["w_antisym"] - anti) <= 4e-16

    def test_bit_symmetric_and_antisymmetric_inputs_give_exact_zeros(self, rng):
        grid = bp.make_grid(0.0, 1.0, 257)
        a = rng.standard_normal((257, 257)) + 1j * rng.standard_normal((257, 257))
        sym = bp.BiphotonSpectrum.from_array(grid, a + a.T)
        anti = bp.BiphotonSpectrum.from_array(grid, a - a.T)
        balanced = bp.BeamSplitterParams.balanced()
        for p in OFF_BALANCE:
            assert bp.transform(anti, p).p_11 == 0.0 and bp.transform(anti, p).p_22 == 0.0
        r = exchange_report(sym, balanced)
        assert r["w_antisym"] == r["trapping_fidelity"] == 0.0
        # cos(pi/4)**2 - sin(pi/4)**2 is 2.2e-16, not 0, in floating point
        assert r["p_coinc"] <= 1e-31
        r = exchange_report(anti, balanced)
        assert r["p_11"] == r["p_22"] == 0.0
        assert abs(r["exchange_overlap"] + 1.0) <= 1e-15

    def test_decomposition_round_trip(self, rng):
        # transform_decomposition takes its probabilities from general channels
        s = make_random_spectrum(rng, 257)
        p = OFF_BALANCE[1]
        q = bp.BeamSplitterParams(theta=1.3, phi_tau=-0.2, phi_rho=0.9)
        d = bp.transform(s, p)
        d2 = bp.transform_decomposition(d, q)
        k = bp.creation_substitution(q)
        want = channel_norms(*_substitute_channels(d.amp_11, d.amp_12, d.amp_22, k))
        assert np.max(np.abs(np.subtract((d2.p_11, d2.p_22, d2.p_coinc), want))) <= 1e-15
        back = bp.transform_decomposition(d, bp.bs_inverse(p))
        np.testing.assert_allclose(back.amp_12, s.amplitudes, atol=1e-14)
        assert back.p_11 < 1e-15 and back.p_22 < 1e-15
        assert abs(back.p_coinc - 1.0) <= 1e-15

    def test_report_working_set(self):
        # the channel form held 5.0 n x n matrices at its peak; the slab
        # reduction holds under a tenth of one
        s = model_state("pair-pumped", 1025)
        p = OFF_BALANCE[1]
        exchange_report(s, p)
        tracemalloc.start()
        try:
            exchange_report(s, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / s.amplitudes.nbytes <= 0.25
