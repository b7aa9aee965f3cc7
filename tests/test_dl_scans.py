"""Path-difference (dl) sweeps read off one row-factor reduction, against the
per-row composition (build the row's spectrum, then project it) as the
oracle; plus the dl alias guard and the scan metadata."""

import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.spectrum import row_factor_antisymmetric_weight

BALANCED = bp.BeamSplitterParams.balanced()
TOL = 1e-14


def oracle(s):
    """Coincidence and antisymmetric weight of one row's spectrum."""
    return bp.coincidence_probability(s, BALANCED), bp.symmetry_decompose(s).w_antisym


def shih_row_spectrum(fixed, grid, dl):
    z1 = fixed.get("z1", 0.0)
    m = bp.ShihModel.from_path_difference(
        center=fixed["center"], sigma=fixed.get("sigma", 1.0), sigma_p=fixed["sigma_p"],
        delta_l=dl, z1=z1, z2=z1 - fixed.get("dz", 0.0), c_light=fixed.get("c_light", 1.0),
    )
    return bp.shih_spectrum(m, grid)


def delta_row_spectrum(fixed, grid, dl):
    return bp.delta_pump_spectrum(
        fixed["sigma"], fixed["center"], dl, fixed["parity"], grid, fixed.get("c_light", 1.0)
    )


def assert_rows_match_oracle(spec, result, row_spectrum):
    grid = bp.resolve_grid(spec.model, spec.fixed, spec.grid_points, spec.grid_span_sigmas)
    for row in result.rows:
        p, w = oracle(row_spectrum(spec.fixed, grid, row.param))
        assert abs(row.p_numeric - p) <= TOL, row.param
        if spec.include_w_antisym:
            assert abs(row.w_antisym - w) <= TOL, row.param
        else:
            assert row.w_antisym is None


def assert_single_points_match(spec, result, stride=3):
    for row in result.rows[::stride]:
        assert bp.evaluate_scan_point(spec, row.param) == row


class TestDlReductionAgainstPerRowOracle:
    @pytest.mark.parametrize("include_w_antisym", [True, False])
    @pytest.mark.parametrize(
        "n,beta,dz,z1,start,stop,steps",
        [
            (257, 0.1, 3.0, 0.0, 3.5, 18.0, 21),
            (257, 0.1, -4.5, 2.0, 0.0, 12.0, 13),
            (1025, 0.01, 2.5, 0.0, 4.0, 15.0, 7),
        ],
    )
    def test_shih_sweeps(self, n, beta, dz, z1, start, stop, steps, include_w_antisym):
        fixed = {"center": 90.0, "sigma": 1.0, "sigma_p": beta, "dz": dz, "z1": z1}
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=start, stop=stop, n_steps=steps, fixed=fixed,
            grid_points=n, grid_span_sigmas=4.5, include_w_antisym=include_w_antisym,
        )
        result = bp.run_scan(spec)
        assert_rows_match_oracle(spec, result, shih_row_spectrum)
        assert_single_points_match(spec, result)

    @pytest.mark.parametrize("include_w_antisym", [True, False])
    @pytest.mark.parametrize("n", [129, 257])
    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_delta_pump_sweeps(self, parity, n, include_w_antisym):
        fixed = {"sigma": 0.8, "center": 1.5, "parity": parity, "c_light": 1.3}
        spec = bp.ScanSpec(
            model="delta_pump", swept="dl", start=0.25, stop=3.0, n_steps=12, fixed=fixed,
            grid_points=n, include_w_antisym=include_w_antisym,
        )
        result = bp.run_scan(spec)
        assert_rows_match_oracle(spec, result, delta_row_spectrum)
        assert_single_points_match(spec, result, stride=1)

    @pytest.mark.parametrize("seed,n", [(21, 5), (22, 33), (23, 65)])
    def test_kernel_matches_from_array_on_random_spectra(self, seed, n):
        rng = np.random.default_rng(seed)
        grid = bp.make_grid(0.0, 3.0, n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = bp.BiphotonSpectrum.from_array(grid, raw)
        weight = row_factor_antisymmetric_weight(s)
        for _ in range(5):
            u = rng.standard_normal(n)
            scaled = bp.BiphotonSpectrum.from_array(grid, u[:, None] * s.amplitudes)
            p, w = oracle(scaled)
            assert abs(weight(u) - p) <= TOL
            assert abs(weight(u) - w) <= TOL


class TestDlErrorsAtTheSameRow:
    def test_shih_modulation_node_is_degenerate(self):
        # at dl = 1 all three grid points sit on zeros of cos(omega * dl / c)
        fixed = {"center": 1.5 * math.pi, "sigma": 1.0, "sigma_p": 0.5}
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=0.5, stop=1.0, n_steps=2, fixed=fixed,
            grid_points=3, grid_span_sigmas=math.pi,
        )
        grid = bp.resolve_grid("shih", fixed, 3, math.pi)
        with pytest.raises(bp.DegenerateSpectrumError):
            shih_row_spectrum(fixed, grid, 1.0)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.run_scan(spec)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.evaluate_scan_point(spec, 1.0)
        row = bp.evaluate_scan_point(spec, 0.5)
        assert abs(row.p_numeric - oracle(shih_row_spectrum(fixed, grid, 0.5))[0]) <= TOL

    def test_odd_delta_pump_at_zero_dl_is_degenerate(self):
        fixed = {"sigma": 1.0, "center": 0.0, "parity": "odd"}
        spec = bp.ScanSpec(
            model="delta_pump", swept="dl", start=0.0, stop=1.0, n_steps=3, fixed=fixed,
            grid_points=65,
        )
        grid = bp.resolve_grid("delta_pump", fixed, 65, 6.0)
        with pytest.raises(bp.DegenerateSpectrumError):
            delta_row_spectrum(fixed, grid, 0.0)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.run_scan(spec)
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.evaluate_scan_point(spec, 0.0)
        assert abs(bp.evaluate_scan_point(spec, 0.5).p_numeric - 1.0) <= TOL

    def test_negative_shih_dl_is_rejected(self):
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=-1.0, stop=1.0, n_steps=3,
            fixed={"center": 90.0, "sigma": 1.0, "sigma_p": 0.1},
            grid_points=65, grid_span_sigmas=4.5,
        )
        with pytest.raises(ValueError, match="delta_l"):
            bp.run_scan(spec)
        with pytest.raises(ValueError, match="delta_l"):
            bp.evaluate_scan_point(spec, -0.5)
        assert bp.evaluate_scan_point(spec, 0.5).p_numeric is not None

    @pytest.mark.parametrize(
        "model,fixed",
        [
            ("gaussian_pair", {"sigma": 1.0}),
            ("bell", {"omega_a": -2.0, "omega_b": 2.0}),
        ],
    )
    def test_other_models_cannot_sweep_dl(self, model, fixed):
        spec = bp.ScanSpec(
            model=model, swept="dl", start=0.0, stop=1.0, n_steps=3, fixed=fixed,
            grid_points=65,
        )
        with pytest.raises(bp.ConfigError, match="cannot sweep 'dl'"):
            bp.run_scan(spec)
        with pytest.raises(bp.ConfigError, match="cannot sweep 'dl'"):
            bp.evaluate_scan_point(spec, 0.5)


class TestDlAliasGuard:
    # n = 257 on 4.5 sigma: domega = 9/256, period 2*pi/domega = 178.72,
    # half period 89.36
    @staticmethod
    def spec(stop, dz=0.0, n_steps=2):
        return bp.ScanSpec(
            model="shih", swept="dl", start=0.0, stop=stop, n_steps=n_steps,
            fixed={"center": 100.0, "sigma": 1.0, "sigma_p": 0.1, "dz": dz},
            grid_span_sigmas=4.5,
        )

    @staticmethod
    def alias_warnings(result):
        return [w for w in result.metadata["truncation_warnings"] if "alias" in w]

    def test_full_period_dl_is_flagged(self):
        # the numeric curve reads 0 here against an exact 1/2
        result = bp.run_scan(self.spec(178.72))
        (warning,) = self.alias_warnings(result)
        assert "|dz| + |dl|" in warning
        assert "178.72" in warning

    def test_fixed_dz_adds_to_the_reach(self):
        assert not self.alias_warnings(bp.run_scan(self.spec(80.0)))
        assert self.alias_warnings(bp.run_scan(self.spec(80.0, dz=-10.0)))

    def test_short_sweeps_not_flagged(self):
        assert not self.alias_warnings(bp.run_scan(self.spec(25.0, dz=5.0, n_steps=5)))


def shih_fixed(**extra):
    return {"center": 319.0 * math.pi / 10.0, "sigma": 1.0, "sigma_p": 0.1, **extra}


class TestScanMetadata:
    def test_dz_sweep_regime_notes_single_entry(self):
        spec = bp.ScanSpec(
            model="shih", swept="dz", start=-5.0, stop=5.0, n_steps=3,
            fixed=shih_fixed(delta_l=2.0), grid_points=129, grid_span_sigmas=4.5,
        )
        notes = bp.run_scan(spec).metadata["regime_notes"]
        m = bp.ShihModel.from_path_difference(
            center=319.0 * math.pi / 10.0, sigma=1.0, sigma_p=0.1, delta_l=2.0
        )
        assert notes == list(bp.models.shih_regime_notes(m))
        assert notes and "delta_l" in notes[0]

    def test_dl_sweep_regime_notes_per_row(self):
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=1.0, stop=9.0, n_steps=5,
            fixed=shih_fixed(), grid_points=129, grid_span_sigmas=4.5,
        )
        result = bp.run_scan(spec)
        notes = result.metadata["regime_notes"]
        assert len(notes) == len(result.metadata["norm_factor_b"]) == 5
        for row, row_notes in zip(result.rows, notes):
            m = bp.ShihModel.from_path_difference(
                center=319.0 * math.pi / 10.0, sigma=1.0, sigma_p=0.1, delta_l=row.param
            )
            assert row_notes == list(bp.models.shih_regime_notes(m))
        assert notes[0] and not notes[-1]

    def test_other_models_carry_no_regime_notes(self):
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-1.0, stop=1.0, n_steps=3,
            fixed={"sigma": 1.0},
        )
        assert "regime_notes" not in bp.run_scan(spec).metadata

    @pytest.mark.parametrize(
        "spec",
        [
            bp.ScanSpec(model="gaussian_pair", swept="dz", start=-2.0, stop=2.0, n_steps=9,
                        fixed={"sigma": 1.0}),
            bp.ScanSpec(model="shih", swept="dl", start=1.0, stop=4.0, n_steps=7,
                        fixed=shih_fixed(dz=1.0), grid_points=129, grid_span_sigmas=4.5),
            bp.ScanSpec(model="shih", swept="dz", start=-1.0, stop=1.0, n_steps=3,
                        fixed=shih_fixed(delta_l=5.0)),
        ],
        ids=["dz", "dl", "shih_dz"],
    )
    def test_stage_times(self, spec):
        meta = bp.run_scan(spec).metadata
        wall = meta["wall_time_s"]
        for key in ("prepare_s", "rows_s"):
            assert 0.0 <= meta[key] <= wall
        assert meta["prepare_s"] + meta["rows_s"] <= wall
