import math
import tracemalloc
import warnings

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import biphoton as bp
from biphoton import spectrum
from biphoton.beamsplitter import exchange_report
from conftest import make_random_spectrum
from reference import from_function, norm_squared, swap, symmetry_decompose

seeds = st.integers(min_value=0, max_value=2**32 - 1)
small_sizes = st.sampled_from([3, 5, 9])


class TestFrequencyGrid:
    def test_three_point_grid(self):
        grid = bp.make_grid(0.0, 6.0, 3)
        np.testing.assert_allclose(grid.frequencies(), [-6.0, 0.0, 6.0])
        assert grid.spacing == 6.0

    def test_offset_center_grid(self):
        grid = bp.make_grid(10.0, 5.0, 5)
        np.testing.assert_allclose(grid.frequencies(), [5.0, 7.5, 10.0, 12.5, 15.0])

    def test_even_count_rejected(self):
        with pytest.raises(ValueError, match="odd point count required"):
            bp.make_grid(0.0, 6.0, 4)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            bp.make_grid(0.0, 6.0, 1)

    def test_nonpositive_half_span_rejected(self):
        with pytest.raises(ValueError, match="half_span"):
            bp.make_grid(0.0, 0.0, 5)

    def test_center_is_exact_grid_point(self):
        grid = bp.make_grid(3.7, 2.1, 257)
        assert grid.frequencies()[grid.center_index] == 3.7

    def test_offsets_are_exactly_mirror_symmetric(self):
        nu = bp.make_grid(5.0, 2.0, 9).offsets()
        assert np.array_equal(nu, -nu[::-1])

    @pytest.mark.parametrize("center", [1e300, -1e300, 1e12, 1e6])
    def test_unresolvable_center_rejected(self, tmp_path, center):
        # floats near the center lie further apart than 1e-9 of the spacing
        # (1e6: 1.2e-10 apart, spacing 0.047): the grid is built, and only
        # its absolute frequency axis, and the file that writes it, are refused
        grid = bp.make_grid(center, 6.0, 257)
        with pytest.raises(bp.ConfigError, match="center"):
            grid.frequencies()
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center, 1.0), grid)
        path = tmp_path / "s.csv"
        with pytest.raises(bp.ConfigError, match="center"):
            bp.save_spectrum(s, str(path))
        assert not path.exists()

    @pytest.mark.parametrize("center", [1e300, -1e300, 2.35e15, 90.0])
    def test_envelopes_depend_only_on_offsets(self, center):
        # a model on a grid of its own center samples the offsets alone, so
        # without delays it has the bits of the same model at center 0
        for pump_sigma in (None, 0.3):
            far, zero = (
                bp.gaussian_pair_spectrum(
                    bp.GaussianPairModel(c, 1.0, pump_sigma), bp.make_grid(c, 6.0, 257)
                ).amplitudes
                for c in (center, 0.0)
            )
            assert np.array_equal(far, zero)

    @pytest.mark.parametrize(
        "center,half_span", [(2.35e15, 6e13), (90.0, 4.5), (-1e4, 6.0), (1e3, 1.0)]
    )
    def test_resolvable_center_accepted(self, center, half_span):
        grid = bp.make_grid(center, half_span, 1025)
        steps = np.diff(grid.frequencies())
        assert np.max(np.abs(steps - grid.spacing)) <= 1e-9 * grid.spacing


class TestFromFunction:
    def test_uniform_function_normalizes_to_one_third(self):
        s = from_function(bp.make_grid(0.0, 1.0, 3), lambda w1, w2: 1.0)
        np.testing.assert_allclose(s.amplitudes, np.full((3, 3), 1.0 / 3.0))

    def test_single_cell_has_unit_modulus(self):
        grid = bp.make_grid(0.0, 1.0, 3)
        s = from_function(grid, lambda w1, w2: ((w1 == 1.0) & (w2 == -1.0)) * 2.5)
        assert abs(abs(s.amplitudes[2, 0]) - 1.0) < 1e-15
        assert np.count_nonzero(s.amplitudes) == 1

    def test_gaussian_equals_outer_product_oracle(self):
        # flat pump: the matrix must be the outer product of two identical
        # 1D Gaussians, built here explicitly as the oracle
        grid = bp.make_grid(2.0, 4.0, 33)
        s = from_function(grid, lambda w1, w2: np.exp(-((w1 - 2.0) ** 2 + (w2 - 2.0) ** 2) / 2.0))
        g1 = np.exp(-((grid.frequencies() - 2.0) ** 2) / 2.0)
        oracle = np.outer(g1, g1).astype(complex)
        oracle /= math.sqrt(np.sum(np.abs(oracle) ** 2))
        np.testing.assert_allclose(s.amplitudes, oracle, atol=1e-15)

    def test_all_zero_sample_rejected(self):
        with pytest.raises(bp.DegenerateSpectrumError, match="degenerate"):
            from_function(bp.make_grid(0.0, 1.0, 3), lambda w1, w2: 0.0)

    def test_non_finite_sample_rejected(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="finite"):
                from_function(bp.make_grid(0.0, 1.0, 3), lambda w1, w2: w1 / (w2 - w2))


class TestSwap:
    def test_symmetric_fixed_point(self, rng):
        s = make_random_spectrum(rng, 5)
        sym = symmetry_decompose(s).sym
        assert np.array_equal(swap(sym).amplitudes, sym.amplitudes)

    def test_single_cell_transposes(self):
        grid = bp.make_grid(0.0, 1.0, 3)
        raw = np.zeros((3, 3), complex)
        raw[0, 1] = 1.0
        s = swap(bp.BiphotonSpectrum.from_array(grid, raw))
        assert s.amplitudes[1, 0] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    @hyp.given(seed=seeds, n=small_sizes)
    def test_involution(self, seed, n):
        s = make_random_spectrum(np.random.default_rng(seed), n)
        assert np.array_equal(swap(swap(s)).amplitudes, s.amplitudes)


class TestSymmetryDecompose:
    def test_symmetric_input_reports_no_antisymmetric_part(self, rng):
        s = make_random_spectrum(rng, 5)
        sym = symmetry_decompose(s).sym
        parts = symmetry_decompose(sym)
        assert parts.antisym is None
        assert parts.w_antisym == 0.0
        np.testing.assert_allclose(parts.sym.amplitudes, sym.amplitudes, atol=1e-15)

    def test_antisymmetric_input_reports_full_weight(self, rng):
        s = make_random_spectrum(rng, 5)
        anti = symmetry_decompose(s).antisym
        parts = symmetry_decompose(anti)
        assert parts.sym is None
        assert abs(parts.w_antisym - 1.0) < 1e-12
        np.testing.assert_allclose(parts.antisym.amplitudes, anti.amplitudes, atol=1e-15)

    def test_weights_match_elementwise_oracle(self, rng):
        s = make_random_spectrum(rng, 9)
        c = s.amplitudes
        w_minus = float(np.sum(np.abs((c - c.T) / 2.0) ** 2))
        parts = symmetry_decompose(s)
        assert abs(parts.w_antisym - w_minus) < 1e-14

    @hyp.given(seed=seeds, n=small_sizes)
    def test_completeness(self, seed, n):
        # unnormalized parts reassemble the input and their weights sum to 1
        s = make_random_spectrum(np.random.default_rng(seed), n)
        parts = symmetry_decompose(s)
        w_anti = parts.w_antisym
        a_plus = parts.sym.amplitudes * math.sqrt(1.0 - w_anti)
        a_minus = parts.antisym.amplitudes * math.sqrt(w_anti)
        np.testing.assert_allclose(a_plus + a_minus, s.amplitudes, atol=1e-12)


class TestApplyPathDelays:
    def test_zero_delays_are_identity(self, random_spectrum):
        out = bp.apply_path_delays(random_spectrum, 0.0, 0.0)
        np.testing.assert_allclose(out.amplitudes, random_spectrum.amplitudes, atol=0)

    def test_pure_phase_preserves_moduli(self, random_spectrum):
        out = bp.apply_path_delays(random_spectrum, 0.37, -2.2)
        np.testing.assert_allclose(
            np.abs(out.amplitudes), np.abs(random_spectrum.amplitudes), rtol=1e-14
        )

    def test_unequal_delays_break_symmetry(self):
        grid = bp.make_grid(0.0, 6.0, 65)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        assert symmetry_decompose(s).w_antisym < 1e-12
        delayed = bp.apply_path_delays(s, 1.0, 0.0)
        assert symmetry_decompose(delayed).w_antisym > 1e-3

    @hyp.given(seed=seeds, z1=st.floats(-5, 5), z2=st.floats(-5, 5))
    def test_norm_preserved(self, seed, z1, z2):
        s = make_random_spectrum(np.random.default_rng(seed), 5)
        out = bp.apply_path_delays(s, z1, z2)
        assert abs(norm_squared(out) - 1.0) < 1e-13

    @hyp.given(seed=seeds, z=st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                                       st.floats(-3, 3), st.floats(-3, 3)))
    def test_delay_composition(self, seed, z):
        z1, z2, z1p, z2p = z
        s = make_random_spectrum(np.random.default_rng(seed), 5)
        twice = bp.apply_path_delays(bp.apply_path_delays(s, z1, z2), z1p, z2p)
        once = bp.apply_path_delays(s, z1 + z1p, z2 + z2p)
        np.testing.assert_allclose(twice.amplitudes, once.amplitudes, atol=1e-12)


def overlap(s):
    """Exchange overlap ``V`` of the CLI's transform report."""
    return exchange_report(s, bp.BeamSplitterParams.balanced())["exchange_overlap"]


class TestExchangeOverlap:
    def test_symmetric_gives_one(self, rng):
        sym = symmetry_decompose(make_random_spectrum(rng, 5)).sym
        assert abs(overlap(sym) - 1.0) < 1e-12

    def test_antisymmetric_gives_minus_one(self, rng):
        anti = symmetry_decompose(make_random_spectrum(rng, 5)).antisym
        assert abs(overlap(anti) + 1.0) < 1e-12

    def test_relates_to_balanced_coincidence(self, rng, balanced):
        # (1 - V)/2 must equal the click-click channel sum
        for n in (3, 5, 9):
            s = make_random_spectrum(rng, n)
            v = overlap(s)
            assert abs((1.0 - v) / 2.0 - bp.coincidence_probability(s, balanced)) < 1e-12

    @hyp.given(seed=seeds, n=small_sizes)
    def test_v_equals_one_minus_twice_antisym_weight(self, seed, n):
        s = make_random_spectrum(np.random.default_rng(seed), n)
        v = overlap(s)
        w = symmetry_decompose(s).w_antisym
        assert abs(v - (1.0 - 2.0 * w)) < 1e-12


class TestExchangeWeights:
    @staticmethod
    def elementwise(c):
        return tuple(0.25 * float(np.sum(np.abs(c + sign * c.T) ** 2)) for sign in (1, -1))

    # sizes below, at and across the 64-row slab edges
    @pytest.mark.parametrize("n", [3, 63, 65, 129, 257])
    def test_matches_elementwise_sums(self, rng, n):
        c = make_random_spectrum(rng, n).amplitudes
        sym, anti = spectrum.exchange_weights(c)
        want_sym, want_anti = self.elementwise(c)
        assert abs(sym - want_sym) <= 1e-15 and abs(anti - want_anti) <= 1e-15
        assert abs(sym + anti - 1.0) <= 1e-15

    def test_exact_zero_for_bit_symmetric_and_antisymmetric_matrices(self, rng):
        a = rng.standard_normal((257, 257)) + 1j * rng.standard_normal((257, 257))
        assert spectrum.exchange_weights(a + a.T)[1] == 0.0
        assert spectrum.exchange_weights(a - a.T)[0] == 0.0

    def test_sum_and_difference_against_exact_sums(self, rng):
        c = make_random_spectrum(rng, 1025).amplitudes
        sym, anti = spectrum.exchange_weights(c)
        assert abs(sym - anti - math.fsum(np.real(np.conj(c) * c.T).ravel())) <= 4e-16
        x = c.view(float).ravel()
        assert abs(sym + anti - math.fsum(x * x)) <= 4e-16


class TestSeparabilityRank1Fraction:
    def test_gaussian_outer_product_is_rank_one(self):
        grid = bp.make_grid(0.0, 5.0, 41)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        assert abs(spectrum._leading_singular_pair(s)[0] - 1.0) < 1e-12

    def test_bell_spectrum_splits_evenly(self):
        # 2x2 block [[0, 1], [-1, 0]]/sqrt(2): equal singular values, so 0.5
        s = bp.bell_antisymmetric_spectrum(-1.0, 1.0, bp.make_grid(0.0, 2.0, 5))
        assert abs(spectrum._leading_singular_pair(s)[0] - 0.5) < 1e-12

    def test_uniform_matrix_is_rank_one(self):
        s = from_function(bp.make_grid(0.0, 1.0, 5), lambda w1, w2: 1.0)
        assert abs(spectrum._leading_singular_pair(s)[0] - 1.0) < 1e-12


def dense_transform(grid):
    # time axis and F[m, i] = exp(-i omega_i t_m), the direct-summation oracle
    n = grid.n_points
    t = (np.arange(n) - grid.center_index) * (2.0 * math.pi / (n * grid.spacing))
    return t, np.exp(-1j * np.outer(t, grid.frequencies()))


class TestTimeDomain:
    def test_single_cell_gives_constant_modulus(self):
        grid = bp.make_grid(0.0, 1.0, 5)
        raw = np.zeros((5, 5), complex)
        raw[1, 3] = 1.0
        packet = bp.time_domain(bp.BiphotonSpectrum.from_array(grid, raw))
        np.testing.assert_allclose(np.abs(packet.values), 1.0, rtol=1e-12)

    def test_separable_spectrum_factorizes(self):
        # oracle: product of two explicit 1D transforms
        grid = bp.make_grid(0.0, 5.0, 33)
        g1 = np.exp(-(grid.frequencies() ** 2) / 2.0)
        g2 = np.exp(-(grid.frequencies() ** 2) / 3.0)
        s = bp.BiphotonSpectrum.from_array(grid, np.outer(g1, g2).astype(complex))
        packet = bp.time_domain(s)
        norm = math.sqrt(np.sum(np.abs(np.outer(g1, g2)) ** 2))
        f = np.exp(-1j * np.outer(packet.time_axis, grid.frequencies()))
        oracle = np.outer(f @ (g1 / norm), f @ g2)
        np.testing.assert_allclose(packet.values, oracle, atol=1e-9)

    def test_gaussian_width_reciprocity(self):
        # amplitude width sigma in frequency -> amplitude width 1/sigma in time
        sigma = 2.0
        grid = bp.make_grid(0.0, 6.0 * sigma, 129)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=sigma), grid)
        packet = bp.time_domain(s)
        marginal = np.abs(packet.values[:, grid.center_index])
        t = packet.time_axis
        width = math.sqrt(float(np.sum(t**2 * marginal) / np.sum(marginal)))
        assert abs(width - 1.0 / sigma) < t[1] - t[0]

    @hyp.given(seed=seeds, n=small_sizes)
    def test_parseval(self, seed, n):
        s = make_random_spectrum(np.random.default_rng(seed), n)
        assert abs(bp.time_domain(s).total_power() - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "n,center,half_span", [(5, 0.0, 1.0), (33, 2.5, 5.0), (257, -1.7, 6.0), (513, 3.0, 6.0)]
    )
    def test_fft_matches_dense_oracle(self, n, center, half_span):
        grid = bp.make_grid(center, half_span, n)
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = bp.BiphotonSpectrum.from_array(grid, raw)
        packet = bp.time_domain(s)
        t, f = dense_transform(grid)
        oracle = f @ s.amplitudes @ f.T
        assert np.array_equal(packet.time_axis, t)
        peak = np.max(np.abs(oracle))
        assert np.max(np.abs(packet.values - oracle)) <= 1e-12 * peak

    @pytest.mark.parametrize("n", [5, 129, 513])
    def test_slabs_give_the_whole_matrix_bits(self, n):
        # the twists and fft2 over the whole matrix, with the twist matrix as
        # the first operand of the product (complex products are not
        # bit-commutative)
        grid = bp.make_grid(0.7, 6.0, n)
        rng = np.random.default_rng(n + 3)
        s = bp.BiphotonSpectrum.from_array(
            grid, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
        _, pre, post = spectrum._time_twists(grid)
        whole = np.fft.fft2(np.multiply(np.outer(pre, pre), s.amplitudes))
        whole *= np.outer(post, post)
        assert np.array_equal(bp.time_domain(s).values.view(float), whole.view(float))

    def test_working_set_is_the_result(self):
        n = 513
        s = bp.gaussian_pair_spectrum(
            bp.GaussianPairModel(0.4, 1.2), bp.make_grid(0.4, 7.2, n)
        )
        bp.time_domain(s)
        tracemalloc.start()
        try:
            bp.time_domain(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result and slabs of the twists and the column FFTs; the whole-matrix
        # twists held three matrices
        assert peak / (16 * n * n) <= 1.25

    def test_vector_transform_matches_dense_oracle(self):
        grid = bp.make_grid(-2.2, 7.0, 257)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(257) + 1j * rng.standard_normal(257)
        oracle = dense_transform(grid)[1] @ x
        got = spectrum._time_transform(x, grid)
        assert np.max(np.abs(got - oracle)) <= 1e-12 * np.max(np.abs(oracle))


class TestImmutability:
    def test_amplitudes_are_read_only(self, random_spectrum):
        with pytest.raises(ValueError):
            random_spectrum.amplitudes[0, 0] = 1.0

    def test_grid_is_frozen(self):
        grid = bp.make_grid(0.0, 1.0, 3)
        with pytest.raises(AttributeError):
            grid.center = 5.0


_BAD_VALUES = [math.nan, math.inf, -math.inf]
_CELLS = [(0, 0), (3, 2), (6, 6)]


class TestFiniteAndNormChecks:
    @pytest.mark.parametrize("value", _BAD_VALUES)
    @pytest.mark.parametrize("cell", _CELLS)
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_entry_rejected_by_from_array(self, rng, value, cell, part):
        raw = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        getattr(raw, part)[cell] = value
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            bp.BiphotonSpectrum.from_array(bp.make_grid(0.0, 1.0, 7), raw)

    @pytest.mark.parametrize(
        "raw", [np.zeros((3, 3)), np.zeros((3, 3), complex), np.full((3, 3), 1e-160 + 0j)]
    )
    def test_zero_array_rejected_by_from_array(self, raw):
        with pytest.raises(bp.DegenerateSpectrumError, match="degenerate"):
            bp.BiphotonSpectrum.from_array(bp.make_grid(0.0, 1.0, 3), raw)

    @pytest.mark.parametrize("value", _BAD_VALUES)
    @pytest.mark.parametrize("cell", _CELLS)
    @pytest.mark.parametrize("part", ["real", "imag"])
    def test_non_finite_entry_rejected_by_construction(self, random_spectrum, value, cell, part):
        amp = random_spectrum.amplitudes.copy()
        getattr(amp, part)[cell] = value
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            bp.BiphotonSpectrum(random_spectrum.grid, amp)

    @pytest.mark.parametrize("scale", [1e200, 1.5e308])
    def test_overflowing_squared_norm_normalizes(self, scale):
        # every square overflows, yet the matrix is finite and nonzero; at
        # 1.5e308 even the modulus of an entry overflows
        raw = np.full((5, 5), scale + scale * 1j)
        raw[2, 3] = scale
        raw[4, 0] = -scale * 1j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = bp.BiphotonSpectrum.from_array(bp.make_grid(0.0, 1.0, 5), raw)
        oracle = raw / scale
        oracle /= math.sqrt(np.sum(np.abs(oracle) ** 2))
        np.testing.assert_allclose(s.amplitudes, oracle, rtol=1e-15)
        assert raw[0, 0] == scale + scale * 1j

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64, np.complex64])
    def test_caller_array_is_not_modified(self, rng, dtype):
        raw = rng.standard_normal((7, 7)).astype(dtype)
        for given in (raw, raw.T):
            before = given.copy()
            bp.BiphotonSpectrum.from_array(bp.make_grid(0.0, 1.0, 7), given)
            assert np.array_equal(given, before)

    def test_squared_norm_against_exact_sum(self):
        rng = np.random.default_rng(4095)
        raw = rng.standard_normal((1025, 1025)) + 1j * rng.standard_normal((1025, 1025))
        squares = raw.view(np.float64) ** 2
        exact = math.fsum(squares.ravel())
        assert abs(spectrum._finite_squared_norm(raw) - exact) <= 1e-15 * exact


def test_grid_spacing_is_twice_the_half_span_over_the_gaps():
    # half_span / center_index: the bits of 2 * half_span / (n - 1), which
    # overflows for a half span past 9e307
    for half_span, n in [(6.0, 257), (4.5, 1025), (math.pi, 33), (3.0, 3), (1e-300, 4095)]:
        assert bp.make_grid(0.0, half_span, n).spacing == 2.0 * half_span / (n - 1)
    grid = bp.make_grid(0.0, 1e308, 33)
    assert grid.spacing == 6.25e306
    assert np.all(np.isfinite(grid.offsets())) and grid.offsets()[-1] == 1e308
