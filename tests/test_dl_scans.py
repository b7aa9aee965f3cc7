"""Path-difference (dl) sweeps read off one exchange reduction, against the
per-row composition (build the row's spectrum, then project it) as the
oracle; plus the dl alias guard and the scan metadata."""

import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.beamsplitter import exchange_report
from biphoton.scans import MODELS, _delayed_state, model_params
from biphoton.spectrum import exchange_sweep
from reference import symmetry_decompose

BALANCED = bp.BeamSplitterParams.balanced()
TOL = 1e-14


def oracle(s):
    """Coincidence and antisymmetric weight of one row's spectrum."""
    return bp.coincidence_probability(s, BALANCED), symmetry_decompose(s).w_antisym


def shih_row_spectrum(fixed, grid, dl):
    z1 = fixed.get("z1", 0.0)
    m = bp.ShihModel(
        center=fixed["center"], sigma=fixed.get("sigma", 1.0), sigma_p=fixed["sigma_p"],
        delta_l=dl, z1=z1, z2=z1 - fixed.get("dz", 0.0), c_light=fixed.get("c_light", 1.0),
    )
    return bp.shih_spectrum(m, grid)


def delta_row_spectrum(fixed, grid, dl):
    return bp.delta_pump_spectrum(
        fixed["sigma"], fixed["center"], dl, fixed["parity"], grid, fixed.get("c_light", 1.0)
    )


def assert_rows_match_oracle(spec, result, row_spectrum):
    params = model_params(spec.model, spec.fixed)
    grid = MODELS[spec.model].grid(params, spec.grid_points, spec.grid_span_sigmas)
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
            # through the first dark fringe, dl = lambda / 4 = pi / 180, where
            # the two paths nearly cancel and the norm drops to 8e-5
            (257, 0.1, 0.0, 0.0, math.pi / 360.0, math.pi / 120.0, 11),
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

    def test_odd_delta_pump_rows_are_exactly_one(self):
        # every row is sin(nu dl / c) times the even envelope, antisymmetric bit
        # for bit, and is reduced from its own factors
        spec = bp.ScanSpec(model="delta_pump", swept="dl", start=-2.0, stop=3.0, n_steps=13,
                           fixed={"parity": "odd"}, grid_points=257)
        rows = [row.p_numeric for row in bp.run_scan(spec).rows]
        assert rows == [1.0] * 13
        assert {type(p) for p in rows} == {float}

    @pytest.mark.parametrize("n", [9, 257])
    def test_even_delta_pump_row_at_zero_dl_is_exactly_zero(self, n):
        spec = bp.ScanSpec(model="delta_pump", swept="dl", start=-2.0, stop=2.0, n_steps=5,
                           fixed={"parity": "even", "sigma": 0.7}, grid_points=n)
        row = bp.run_scan(spec).rows[2]
        assert row.param == 0.0
        assert row.p_numeric == 0.0 and type(row.p_numeric) is float

    @pytest.mark.parametrize("seed,n", [(21, 5), (22, 33), (23, 65)])
    def test_kernel_matches_from_array_on_random_spectra(self, seed, n):
        # complex plane-wave pairs a exp(i tau nu) + b exp(-i tau nu) on
        # random complex spectra, delays (b = 0) included
        rng = np.random.default_rng(seed)
        grid = bp.make_grid(rng.uniform(-5.0, 5.0), 3.0, n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        s = bp.BiphotonSpectrum.from_array(grid, raw)
        weights = exchange_sweep(s)
        symmetric = bp.BiphotonSpectrum.from_array(grid, raw + raw.T)
        assert exchange_sweep(symmetric)([1.0], [0.0], [0.0]).tolist() == [0.0]
        for k in range(6):
            a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = 0.0 if k == 0 else b
            tau = rng.uniform(-4.0, 4.0)
            waves = np.exp(1j * tau * grid.offsets())
            d = a * waves + b * np.conj(waves)
            scaled = bp.BiphotonSpectrum.from_array(grid, d[:, None] * s.amplitudes)
            p, w = oracle(scaled)
            (row,) = weights([a], [b], [tau])
            assert abs(row - p) <= TOL
            assert abs(row - w) <= TOL


class TestDlErrorsAtTheSameRow:
    def test_shih_modulation_node_is_degenerate(self):
        # at dl = 1 all three grid points sit on zeros of cos(omega * dl / c)
        fixed = {"center": 1.5 * math.pi, "sigma": 1.0, "sigma_p": 0.5}
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=0.5, stop=1.0, n_steps=2, fixed=fixed,
            grid_points=3, grid_span_sigmas=math.pi,
        )
        grid = bp.make_grid(1.5 * math.pi, math.pi, 3)
        # refused as a fixed dl, by the public builder and as an input state,
        # and as a swept row
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            shih_row_spectrum(fixed, grid, 1.0)
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            _delayed_state("shih", {**model_params("shih", fixed), "delta_l": 1.0}, 3, math.pi)
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            bp.run_scan(spec)
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            bp.evaluate_scan_point(spec, 1.0)
        row = bp.evaluate_scan_point(spec, 0.5)
        assert abs(row.p_numeric - oracle(shih_row_spectrum(fixed, grid, 0.5))[0]) <= TOL

    def test_odd_delta_pump_at_zero_dl_is_degenerate(self):
        fixed = {"sigma": 1.0, "center": 0.0, "parity": "odd"}
        spec = bp.ScanSpec(
            model="delta_pump", swept="dl", start=0.0, stop=1.0, n_steps=3, fixed=fixed,
            grid_points=65,
        )
        grid = bp.make_grid(0.0, 6.0, 65)
        # sin(nu * 0) wipes the envelope out, a node as any other
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            delta_row_spectrum(fixed, grid, 0.0)
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
            bp.run_scan(spec)
        with pytest.raises(bp.DegenerateSpectrumError, match="path-difference modulation"):
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


class TestOnePathForAPathDifference:
    """A fixed ``dl`` and a swept one both scale the ``dl = 0`` state by the
    model's row factor, so a fixed ``dl`` reads its swept row; ``w_antisym`` is
    compared, since ``p_coinc`` leaves ~5e-32 on an exactly symmetric state."""

    @staticmethod
    def fixed_dl_weights(spec):
        key = MODELS[spec.model].dl_key
        row = model_params(spec.model, spec.fixed)
        return [
            exchange_report(
                _delayed_state(spec.model, {**row, key: dl}, spec.grid_points,
                               spec.grid_span_sigmas),
                BALANCED,
            )["w_antisym"]
            for dl in spec.values()
        ]

    @pytest.mark.parametrize("n,beta,dz", [(257, 0.1, 1.5), (1025, 0.01, -2.0)])
    def test_shih(self, n, beta, dz):
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=0.0, stop=6.0, n_steps=9,
            fixed={"center": 90.0, "sigma_p": beta, "dz": dz}, grid_points=n,
            grid_span_sigmas=4.5,
        )
        swept = [row.p_numeric for row in bp.run_scan(spec).rows]
        assert np.max(np.abs(np.subtract(self.fixed_dl_weights(spec), swept))) <= 1e-15

    @pytest.mark.parametrize("parity,start,want", [("even", -2.0, 0.0), ("odd", 0.25, 1.0)])
    def test_delta_pump_bit_for_bit(self, parity, start, want):
        spec = bp.ScanSpec(
            model="delta_pump", swept="dl", start=start, stop=3.0, n_steps=9,
            fixed={"sigma": 0.8, "center": 1.5, "parity": parity, "c_light": 1.3},
        )
        swept = [row.p_numeric for row in bp.run_scan(spec).rows]
        assert self.fixed_dl_weights(spec) == swept == [want] * 9


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
        m = bp.ShihModel(
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
        # the regime numbers are listed per row as well (sigma = c = 1)
        assert result.metadata["sigma_dl_over_c"] == [row.param for row in result.rows]
        assert result.metadata["beta"] == [0.1] * 5
        assert result.metadata["beta_sigma_dl_over_c"] == [0.1 * row.param for row in result.rows]
        for row, row_notes in zip(result.rows, notes):
            m = bp.ShihModel(
                center=319.0 * math.pi / 10.0, sigma=1.0, sigma_p=0.1, delta_l=row.param
            )
            assert row_notes == list(bp.models.shih_regime_notes(m))
        # sigma*delta_l/c = 9 is past its threshold 5, while beta*sigma*delta_l/c = 0.9 is flagged
        assert notes[0] and not any(
            note.startswith("reduced form assumes sigma*delta_l/c") for note in notes[-1]
        )

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
