import math

import numpy as np
import pytest

import biphoton as bp
from biphoton import models
from biphoton.models import delta_pump_row_factor
from biphoton.spectrum import _factored_row_sums, _hankel, _squared_pump
from reference import symmetry_decompose


def _series_exp(x: float, terms: int = 40) -> float:
    """Plain Taylor-series exponential, independent of libm."""
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= x / k
        total += term
    return total


class TestGaussianPairSpectrum:
    def test_flat_pump_is_unentangled(self):
        grid = bp.make_grid(0.0, 6.0, 65)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        assert abs(bp.separability_rank1_fraction(s) - 1.0) < 1e-12

    def test_narrow_pump_entangles(self):
        grid = bp.make_grid(0.0, 6.0, 65)
        m = bp.GaussianPairModel(center=0.0, sigma=1.0, pump_sigma=0.1)
        s = bp.gaussian_pair_spectrum(m, grid)
        assert bp.separability_rank1_fraction(s) < 0.5

    @pytest.mark.parametrize("pump_sigma", [None, 0.05, 0.5, 2.0])
    def test_zero_delay_coalescence_for_any_pump(self, pump_sigma, balanced):
        grid = bp.make_grid(0.0, 6.0, 129)
        m = bp.GaussianPairModel(center=0.0, sigma=1.0, pump_sigma=pump_sigma)
        s = bp.gaussian_pair_spectrum(m, grid)
        assert symmetry_decompose(s).w_antisym < 1e-12
        assert bp.coincidence_probability(s, balanced) < 1e-14

    def test_numeric_dip_is_symmetric_in_delay(self, balanced):
        grid = bp.make_grid(0.0, 6.0, 129)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        for dz in (0.4, 1.1, 2.7):
            forward = bp.coincidence_probability(bp.apply_path_delays(s, dz, 0.0), balanced)
            backward = bp.coincidence_probability(bp.apply_path_delays(s, -dz, 0.0), balanced)
            assert abs(forward - backward) < 1e-12

    def test_narrow_grid_records_truncation_warning(self):
        grid = bp.make_grid(0.0, 2.0, 17)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        assert any("truncated" in w for w in s.warnings)

    def test_covering_grid_has_no_warning(self):
        grid = bp.make_grid(0.0, 6.0, 17)
        s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(center=0.0, sigma=1.0), grid)
        assert s.warnings == ()


class TestHomDipClosed:
    def test_zero_delay_is_perfect_coalescence(self):
        assert bp.hom_dip_closed(1.0, 0.0) == 0.0

    def test_large_delay_asymptote(self):
        assert abs(bp.hom_dip_closed(1.0, 20.0) - 0.5) < 1e-12

    def test_unit_group_value_against_series_oracle(self):
        expected = 0.5 * (1.0 - _series_exp(-0.5))
        assert abs(bp.hom_dip_closed(1.0, 1.0) - expected) < 1e-15
        assert abs(expected - 0.196735) < 1e-6

    def test_depends_only_on_dimensionless_group(self):
        natural = bp.hom_dip_closed(1.0, 1.3)
        si = bp.hom_dip_closed(2.0e12, 1.3 * 299792458.0 / 2.0e12, c_light=299792458.0)
        assert abs(natural - si) < 1e-12

    def test_symmetric_in_delay(self):
        assert bp.hom_dip_closed(1.0, 0.7) == bp.hom_dip_closed(1.0, -0.7)


def _shih(center, beta, delta_l, dz=0.0, sigma=1.0):
    return bp.ShihModel(
        center=center, sigma=sigma, sigma_p=beta * sigma, delta_l=delta_l, z1=0.0, z2=-dz
    )


def _odd_center(x_dl: float, k: int) -> float:
    # carrier frequency putting 4*delta_l/lambda exactly at the odd integer k
    return k * math.pi / (2.0 * x_dl)


class TestShihSpectrum:
    def test_zero_path_difference_reduces_to_gaussian_pair(self):
        grid = bp.make_grid(100.0, 5.0, 65)
        m = _shih(center=100.0, beta=0.5, delta_l=0.0)
        pair = bp.gaussian_pair_spectrum(
            bp.GaussianPairModel(center=100.0, sigma=1.0, pump_sigma=0.5), grid
        )
        np.testing.assert_allclose(
            bp.shih_spectrum(m, grid).amplitudes, pair.amplitudes, atol=1e-15
        )

    def test_mismatched_paths_equal_delayed_pair(self):
        grid = bp.make_grid(100.0, 5.0, 65)
        m = _shih(center=100.0, beta=0.5, delta_l=0.0, dz=0.8)
        pair = bp.gaussian_pair_spectrum(
            bp.GaussianPairModel(center=100.0, sigma=1.0, pump_sigma=0.5), grid
        )
        delayed = bp.apply_path_delays(pair, m.z1, m.z2)
        np.testing.assert_allclose(
            bp.shih_spectrum(m, grid).amplitudes, delayed.amplitudes, atol=1e-15
        )

    def test_odd_parity_long_paths_anticoalesce(self, balanced):
        grid = bp.make_grid(_odd_center(5.0, 319), 4.5, 257)
        m = _shih(center=_odd_center(5.0, 319), beta=0.1, delta_l=5.0)
        s = bp.shih_spectrum(m, grid)
        assert bp.coincidence_probability(s, balanced) > 0.9

    def test_modulation_node_alignment_is_degenerate(self):
        # all three grid points sit on zeros of cos(omega * dl / c)
        grid = bp.make_grid(1.5 * math.pi, math.pi, 3)
        m = _shih(center=1.5 * math.pi, beta=0.5, delta_l=1.0)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.shih_spectrum(m, grid)

    def test_derived_quantities(self):
        m = bp.ShihModel(center=10.0, sigma=1.0, sigma_p=0.25, delta_l=2.0, z1=4.0, z2=1.0)
        assert m.beta == 0.25
        assert abs(m.wavelength - 2.0 * math.pi / 10.0) < 1e-15

    def test_paths_are_stored_as_given(self):
        # bit for bit, not rebuilt from the two signal paths
        m = bp.ShihModel(90.0, 1.0, 0.01, 20.0, z1=1e-3, z2=-0.3)
        assert (m.delta_l, m.z1, m.z2) == (20.0, 1e-3, -0.3)

    def test_swapped_paths_rejected(self):
        # a short path longer than the long one is a negative half difference
        with pytest.raises(ValueError, match="delta_l"):
            bp.ShihModel(center=10.0, sigma=1.0, sigma_p=0.25, delta_l=-2.0, z1=4.0)

    @pytest.mark.parametrize("delta_l", [math.inf, math.nan])
    def test_non_finite_path_difference_rejected(self, delta_l):
        # non-finite z1 and z2: tests/test_sampling.py
        with pytest.raises(bp.ConfigError, match="dz"):
            bp.ShihModel(center=10.0, sigma=1.0, sigma_p=0.25, delta_l=delta_l)


class TestShihNormFactor:
    def test_unity_at_zero_path_difference(self):
        assert bp.shih_norm_factor(_shih(center=100.0, beta=0.1, delta_l=0.0)) == 1.0

    def test_half_limit_for_long_paths(self):
        for beta in (0.01, 0.1):
            m = _shih(center=_odd_center(20.0, 1273), beta=beta, delta_l=20.0)
            assert abs(bp.shih_norm_factor(m) - 0.5) < 1e-10

    @pytest.mark.parametrize("beta,x_dl,k", [(0.5, 1.0, 63), (0.1, 2.0, 127), (0.5, 1.0, 64)])
    def test_matches_numeric_norm_ratio(self, beta, x_dl, k):
        # ground truth: the squared norm of the modulated spectrum relative
        # to the unmodulated envelope, summed on a fine grid
        center = k * math.pi / (2.0 * x_dl)
        grid = bp.make_grid(center, 6.0, 1201)
        w = grid.frequencies()
        w1, w2 = np.meshgrid(w, w, indexing="ij")
        envelope_sq = np.exp(
            -((w1 + w2 - 2.0 * center) ** 2) / (beta**2)
            - ((w1 - center) ** 2 + (w2 - center) ** 2)
        )
        numeric = float(
            np.sum(envelope_sq * np.cos(w1 * x_dl) ** 2) / np.sum(envelope_sq)
        )
        m = _shih(center=center, beta=beta, delta_l=x_dl)
        assert abs(bp.shih_norm_factor(m) - numeric) < 1e-8


class TestShihExact:
    def test_collapsed_paths_give_plain_dip_zero(self):
        assert bp.shih_exact(_shih(center=100.0, beta=0.1, delta_l=0.0), 0.0) == 0.0

    def test_collapsed_paths_match_dip_curve(self):
        m = _shih(center=100.0, beta=0.1, delta_l=0.0)
        for dz in (0.0, 0.5, 1.0, 2.5):
            assert abs(bp.shih_exact(m, dz) - bp.hom_dip_closed(1.0, dz)) < 1e-14

    @pytest.mark.parametrize("beta,x_dl,k", [(0.1, 1.0, 63), (0.1, 5.0, 319), (0.5, 2.0, 127)])
    def test_against_grid_quadrature(self, beta, x_dl, k, balanced):
        center = k * math.pi / (2.0 * x_dl)
        grid = bp.make_grid(center, 4.5, 257)
        worst = 0.0
        for dz in np.linspace(-8.0, 8.0, 9):
            m = _shih(center=center, beta=beta, delta_l=x_dl, dz=dz)
            p_num = bp.coincidence_probability(bp.shih_spectrum(m, grid), balanced)
            worst = max(worst, abs(p_num - bp.shih_exact(m, dz)))
        assert worst < 1e-6

    def test_vanishing_norm_factor_guarded(self):
        m = _shih(center=_odd_center(1e-9, 1), beta=0.1, delta_l=1e-9)
        assert bp.shih_norm_factor(m) < 1e-15
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.shih_exact(m, 0.0)


class TestShihReduced:
    def test_odd_parity_peak_reaches_unity(self):
        m = _shih(center=_odd_center(20.0, 1001), beta=0.01, delta_l=20.0)
        assert abs(bp.shih_reduced(m, 0.0) - 1.0) < 1e-10

    def test_even_parity_gives_dip_zero(self):
        m = _shih(center=_odd_center(20.0, 1000), beta=0.01, delta_l=20.0)
        assert abs(bp.shih_reduced(m, 0.0)) < 1e-10

    def test_agrees_with_exact_deep_in_regime(self):
        # beta small enough that the dropped pump-width correction is < 1e-3
        m = _shih(center=_odd_center(20.0, 1001), beta=0.001, delta_l=20.0)
        worst = max(
            abs(bp.shih_exact(m, dz) - bp.shih_reduced(m, dz))
            for dz in np.linspace(-30.0, 30.0, 61)
        )
        assert worst < 1e-3

    def test_gap_at_moderate_beta_matches_prediction(self):
        # the reduced form omits exp(-beta^2/(2+beta^2) * (sigma*dl/c)^2 / 2)
        # in the pump term; at beta=0.01, sigma*dl/c=20 that costs ~5e-3
        m = _shih(center=_odd_center(20.0, 1001), beta=0.01, delta_l=20.0)
        gap = abs(bp.shih_exact(m, 0.0) - bp.shih_reduced(m, 0.0))
        b = bp.shih_norm_factor(m)
        predicted = 0.5 * (1.0 - math.exp(-0.5 * (0.01**2 / 2.0001) * 400.0) / (2.0 * b))
        assert abs(gap - predicted) < 1e-12
        assert 4.9e-3 < gap < 5.0e-3

    def test_regime_notes(self):
        assert bp.models.shih_regime_notes(_shih(center=100.0, beta=0.5, delta_l=1.0))
        assert not bp.models.shih_regime_notes(
            _shih(center=_odd_center(20.0, 1001), beta=0.01, delta_l=20.0)
        )

    @pytest.mark.parametrize(
        "beta, x_dl, noted",
        [
            (0.001, 20.0, False),
            (0.01, 20.0, False),
            (0.02, 20.0, False),
            (0.1, 5.0, False),
            (0.026, 20.0, True),
            (0.05, 20.0, True),
            (0.1, 9.0, True),
            (0.1, 20.0, True),
        ],
    )
    def test_pump_width_note_bounds_the_gap(self, beta, x_dl, noted):
        # the omitted pump-width factor is noted past beta*sigma*dl/c = 0.5, where it
        # moves the reduced form by just over 0.03; 0.1 * 5 sits on the limit itself
        m = _shih(center=_odd_center(x_dl, 1001), beta=beta, delta_l=x_dl)
        notes = bp.models.shih_regime_notes(m)
        assert any(note.startswith("reduced form assumes beta*sigma") for note in notes) == noted
        gap = max(
            abs(bp.shih_exact(m, dz) - bp.shih_reduced(m, dz))
            for dz in np.linspace(-3.0 * x_dl, 3.0 * x_dl, 601)
        )
        assert (gap > 0.0303) == noted


class TestDeltaPumpSpectrum:
    def test_even_parity_is_symmetric_and_coalesces(self, balanced):
        grid = bp.make_grid(0.0, 6.0, 129)
        s = bp.delta_pump_spectrum(1.0, 0.0, 1.0, "even", grid)
        assert symmetry_decompose(s).w_antisym == 0.0
        assert bp.coincidence_probability(s, balanced) < 1e-14

    def test_odd_parity_is_antisymmetric_and_trapped(self, balanced):
        grid = bp.make_grid(0.0, 6.0, 129)
        s = bp.delta_pump_spectrum(1.0, 0.0, 1.0, "odd", grid)
        assert abs(symmetry_decompose(s).w_antisym - 1.0) < 1e-14
        assert abs(bp.coincidence_probability(s, balanced) - 1.0) < 1e-12
        assert abs(bp.trapping_fidelity(s) - 1.0) < 1e-12

    def test_odd_parity_has_no_degenerate_photons(self):
        grid = bp.make_grid(0.0, 6.0, 129)
        s = bp.delta_pump_spectrum(1.0, 0.0, 1.0, "odd", grid)
        assert np.all(np.diag(s.amplitudes) == 0.0)

    def test_support_is_antidiagonal_only(self):
        grid = bp.make_grid(0.0, 6.0, 17)
        s = bp.delta_pump_spectrum(1.0, 0.0, 1.0, "even", grid)
        mask = np.fliplr(np.eye(17, dtype=bool))
        assert np.all(s.amplitudes[~mask] == 0.0)
        assert np.all(s.amplitudes[mask] != 0.0)

    def test_sine_with_zero_path_difference_is_degenerate(self):
        grid = bp.make_grid(0.0, 6.0, 17)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.delta_pump_spectrum(1.0, 0.0, 0.0, "odd", grid)

    def test_center_mismatch_rejected(self):
        grid = bp.make_grid(1.0, 6.0, 17)
        with pytest.raises(ValueError, match="center"):
            bp.delta_pump_spectrum(1.0, 0.0, 1.0, "even", grid)

    def test_unknown_parity_rejected(self):
        grid = bp.make_grid(0.0, 6.0, 17)
        with pytest.raises(ValueError, match="parity"):
            bp.delta_pump_spectrum(1.0, 0.0, 1.0, "sideways", grid)


@pytest.mark.parametrize("c_light", [0.0, -1.0, math.inf, math.nan])
def test_bad_light_speed_rejected(c_light):
    # c_light = 0 used to raise ZeroDivisionError, and c_light = -1 was accepted
    grid = bp.make_grid(0.0, 6.0, 17)
    message = "c_light must be positive and finite"
    with pytest.raises(ValueError, match=message):
        bp.delta_pump_spectrum(1.0, 0.0, 1.0, "even", grid, c_light)
    with pytest.raises(ValueError, match=message):
        delta_pump_row_factor(grid, 1.0, "odd", c_light)
    with pytest.raises(ValueError, match=message):
        bp.hom_dip_closed(1.0, 0.5, c_light)
    spec = bp.ScanSpec(
        model="delta_pump", swept="dl", start=0.5, stop=1.0, n_steps=2,
        fixed={"sigma": 1.0, "center": 0.0, "parity": "even", "c_light": c_light},
        grid_points=17,
    )
    with pytest.raises(ValueError, match=message):
        bp.run_scan(spec)


class TestBellSpectrum:
    def test_unit_coincidence_and_weight(self, balanced):
        s = bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17))
        assert abs(bp.coincidence_probability(s, balanced) - 1.0) < 1e-12
        assert abs(symmetry_decompose(s).w_antisym - 1.0) < 1e-14

    def test_balanced_transform_traps_amplitudes(self, balanced):
        s = bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17))
        d = bp.transform(s, balanced)
        np.testing.assert_allclose(d.amp_12, s.amplitudes, atol=1e-12)
        np.testing.assert_allclose(d.amp_11 + d.amp_11.T, 0.0, atol=1e-15)
        assert d.p_11 < 1e-15 and d.p_22 < 1e-15

    def test_off_grid_tones_snap_with_warning(self):
        s = bp.bell_antisymmetric_spectrum(-2.1, 2.0, bp.make_grid(0.0, 8.0, 17))
        assert any("snapped" in w for w in s.warnings)
        assert abs(symmetry_decompose(s).w_antisym - 1.0) < 1e-14

    def test_coinciding_tones_rejected(self):
        grid = bp.make_grid(0.0, 8.0, 17)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.bell_antisymmetric_spectrum(1.0, 1.2, grid)  # snap to the same cell

    def test_out_of_range_tone_rejected(self):
        grid = bp.make_grid(0.0, 8.0, 17)
        with pytest.raises(ValueError, match="outside"):
            bp.bell_antisymmetric_spectrum(-2.0, 11.0, grid)


@pytest.mark.parametrize("n", [3, 33, 257, 1025, 4095])
def test_path_difference_row_norms_from_one_hankel_row(n):
    # _path_difference takes |x|**2 H[|y|**2] from a one-row Hankel product; it
    # is row 0 of the three-row product of the scan reduction, bit for bit
    states = [
        models._shih_state(bp.ShihModel(center=90.0, sigma=1.0, sigma_p=beta, delta_l=0.0),
                           bp.make_grid(90.0, 4.5, n))
        for beta in (0.01, 0.1, 3.0)
    ]
    states.append(models._delta_pump_state(1.0, 0.0, bp.make_grid(0.0, 6.0, n)))
    for state in states:
        one_row = _hankel(_squared_pump(state), n)((np.conj(state.y) * state.y).real)
        row_norms = (np.conj(state.x) * state.x).real * one_row
        assert np.array_equal(row_norms, _factored_row_sums(state)(state.x)[0])
