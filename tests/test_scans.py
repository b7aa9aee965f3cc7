import json
import math

import numpy as np
import pytest

import biphoton as bp
from biphoton import fileio
from biphoton.scans import MAX_SCAN_STEPS, ScanRow
from reference import scan_point


def dip_spec(n_steps=21, pump_sigma=None, grid_points=257, start=-4.0, stop=4.0, **kwargs):
    fixed = {"sigma": 1.0, "center": 0.0}
    if pump_sigma is not None:
        fixed["pump_sigma"] = pump_sigma
    return bp.ScanSpec(
        model="gaussian_pair",
        swept="dz",
        start=start,
        stop=stop,
        n_steps=n_steps,
        fixed=fixed,
        grid_points=grid_points,
        **kwargs,
    )


def shih_spec(**overrides):
    center = 319.0 * math.pi / 10.0  # 4*delta_l/lambda = 319 at delta_l = 5
    params = dict(
        model="shih",
        swept="dz",
        start=-10.0,
        stop=10.0,
        n_steps=21,
        fixed={"center": center, "sigma": 1.0, "sigma_p": 0.1, "delta_l": 5.0},
        grid_points=257,
        grid_span_sigmas=4.5,
    )
    params.update(overrides)
    return bp.ScanSpec(**params)


class TestRunScan:
    def test_dip_scan_matches_closed_form(self):
        result = bp.run_scan(dip_spec(n_steps=41))
        cmp = bp.compare_methods(result)
        assert cmp.max_abs_dev < 1e-6
        assert len(result.rows) == 41

    def test_dip_zero_delay_row(self):
        result = bp.run_scan(dip_spec(n_steps=21))
        row = result.rows[10]
        assert row.param == 0.0
        assert row.p_closed == 0.0
        assert row.p_numeric < 1e-14
        assert row.w_antisym < 1e-14

    def test_shih_peak_at_zero_delay(self):
        result = bp.run_scan(shih_spec())
        best = max(result.rows, key=lambda r: r.p_numeric)
        assert best.param == 0.0
        assert best.p_numeric > 0.9
        assert bp.compare_methods(result).max_abs_dev < 1e-3

    def test_shih_metadata_records_norm_factor_and_parity(self):
        result = bp.run_scan(shih_spec())
        assert abs(result.metadata["norm_factor_b"] - 0.5) < 1e-5
        assert abs(result.metadata["parity_4dl_over_lambda"] - 1.0) < 1e-9

    def test_shih_dl_sweep_has_per_row_metadata(self):
        spec = shih_spec(
            swept="dl",
            start=0.0,
            stop=0.5,
            n_steps=6,
            fixed={"center": 319.0 * math.pi / 10.0, "sigma": 1.0, "sigma_p": 0.1, "dz": 0.0},
        )
        result = bp.run_scan(spec)
        assert len(result.metadata["parity_4dl_over_lambda"]) == 6
        assert len(result.metadata["norm_factor_b"]) == 6
        assert result.metadata["norm_factor_b"][0] == 1.0

    def test_bell_signal_delay_beats(self):
        # relative delay on one tone pair: P = (1 + cos((w_b - w_a) dz)) / 2
        spec = bp.ScanSpec(
            model="bell",
            swept="dz",
            start=0.0,
            stop=math.pi / 4.0,
            n_steps=5,
            fixed={"omega_a": -2.0, "omega_b": 2.0},
        )
        result = bp.run_scan(spec)
        for row in result.rows:
            expected = 0.5 * (1.0 + math.cos(4.0 * row.param))
            assert abs(row.p_numeric - expected) < 1e-12

    def test_delta_pump_scan_is_numeric_only(self):
        spec = bp.ScanSpec(
            model="delta_pump",
            swept="dz",
            start=-2.0,
            stop=2.0,
            n_steps=5,
            fixed={"sigma": 1.0, "center": 0.0, "dl": 1.0, "parity": "odd"},
            grid_points=129,
        )
        result = bp.run_scan(spec)
        assert result.rows[0].p_closed is None
        assert all(r.p_numeric is not None for r in result.rows)

    def test_spectrum_file_model(self, tmp_path):
        s = bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17))
        path = str(tmp_path / "bell.csv")
        bp.save_spectrum(s, path)
        spec = bp.ScanSpec(
            model="spectrum_file",
            swept="dz",
            start=-1.0,
            stop=1.0,
            n_steps=5,
            fixed={"path": path},
        )
        result = bp.run_scan(spec)
        for row in result.rows:
            expected = 0.5 * (1.0 + math.cos(4.0 * row.param))
            assert abs(row.p_numeric - expected) < 1e-12

    def test_probability_bound_enforced(self):
        result = bp.run_scan(dip_spec(n_steps=5))
        for row in result.rows:
            assert -1e-10 <= row.p_numeric <= 1.0 + 1e-10


class TestDeterminism:
    def test_identical_specs_give_bit_identical_rows(self):
        a = bp.run_scan(dip_spec(n_steps=11, pump_sigma=0.5))
        b = bp.run_scan(dip_spec(n_steps=11, pump_sigma=0.5))
        assert a.rows == b.rows

    def test_single_point_evaluation_matches_batch(self):
        spec = dip_spec(n_steps=11)
        batch = bp.run_scan(spec)
        for row in (batch.rows[0], batch.rows[5], batch.rows[10]):
            assert scan_point(spec, row.param) == row

    def test_single_point_matches_batch_for_internal_paths(self):
        spec = shih_spec(n_steps=5)
        batch = bp.run_scan(spec)
        for row in batch.rows:
            assert scan_point(spec, row.param) == row


class TestGridConvergence:
    def test_dip_error_decreases_or_stays_below_floor(self):
        target = bp.hom_dip_closed(1.0, 1.0)
        errors = []
        for n in (65, 129, 257):
            spec = dip_spec(n_steps=2, grid_points=n)
            row = scan_point(spec, 1.0)
            errors.append(abs(row.p_numeric - target))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse or fine < 1e-12


class TestCompareMethods:
    def test_identical_columns_give_zero_statistics(self):
        spec = dip_spec(n_steps=3)
        rows = tuple(
            ScanRow(param=float(v), p_numeric=0.25, p_closed=0.25) for v in (-1, 0, 1)
        )
        result = bp.ScanResult(spec=spec, rows=rows, metadata={})
        cmp = bp.compare_methods(result)
        assert cmp.max_abs_dev == 0.0
        assert cmp.argmax_param == -1.0
        assert cmp.rms == 0.0

    def test_missing_column_rejected(self):
        spec = dip_spec(n_steps=3)
        rows = (ScanRow(param=0.0, p_numeric=0.25, p_closed=None),)
        with pytest.raises(ValueError, match="column"):
            bp.compare_methods(bp.ScanResult(spec=spec, rows=rows, metadata={}))


class TestScanSpecValidation:
    def test_single_step_rejected(self):
        with pytest.raises(bp.ConfigError, match="steps must be >= 2"):
            dip_spec(n_steps=1)

    def test_step_count_above_the_cap_rejected(self):
        # a spec allocates nothing, so the cap itself is cheap to accept
        assert dip_spec(n_steps=MAX_SCAN_STEPS).n_steps == MAX_SCAN_STEPS
        for n_steps in (MAX_SCAN_STEPS + 1, 10**12):
            with pytest.raises(bp.ConfigError, match=r"\bsteps must be <="):
                dip_spec(n_steps=n_steps)

    def test_non_integral_step_count_rejected(self):
        # refused at construction: the np.linspace of run_scan takes only an integer count
        with pytest.raises(bp.ConfigError, match=r"^steps must be an integer, got 81\.0$"):
            dip_spec(n_steps=81.0)
        for n_steps in (True, "81", 81.5):
            with pytest.raises(bp.ConfigError, match="steps must be an integer"):
                dip_spec(n_steps=n_steps)
        assert len(bp.run_scan(dip_spec(n_steps=np.int64(5))).rows) == 5

    def test_non_numeric_range_rejected(self):
        # the number rule of model_params, checked before stop - start is taken
        with pytest.raises(bp.ConfigError, match=r"^start must be a number, got 'a'$"):
            bp.ScanSpec(model="gaussian_pair", swept="dz", start="a", stop="b", n_steps=3)

    def test_bool_range_rejected(self):
        # a bool is not a number, as in model_params
        with pytest.raises(bp.ConfigError, match=r"^start must be a number, got False$"):
            bp.ScanSpec(model="gaussian_pair", swept="dz", start=False, stop=True, n_steps=3)

    def test_numpy_fields_are_stored_as_python_numbers(self, tmp_path):
        # the JSON spec block copies the fields, which json cannot encode as numpy scalars
        spec = dip_spec(n_steps=np.int64(3), start=np.float32(-1.0), stop=np.float32(1.0))
        assert [type(getattr(spec, name)) for name in ("start", "stop", "n_steps")] == [
            float, float, int]
        path = tmp_path / "scan.json"
        fileio.write_scan_json(bp.run_scan(spec), [("param", "param")], str(path))
        assert json.loads(path.read_text())["spec"]["n_steps"] == 3

    def test_numpy_grid_points_accepted(self):
        # stored as int: make_grid takes only a Python integer
        spec = dip_spec(grid_points=np.int64(33))
        assert type(spec.grid_points) is int
        assert bp.run_scan(spec).metadata["grid"]["n_points"] == 33
        for grid_points in (True, 33.0):
            with pytest.raises(bp.ConfigError, match="^grid_points must be an integer"):
                dip_spec(grid_points=grid_points)

    def test_bool_grid_span_rejected(self):
        # True would be a span of 1.0
        with pytest.raises(bp.ConfigError, match=r"^grid_span_sigmas must be a number, got True$"):
            dip_spec(grid_span_sigmas=True)

    def test_reversed_range_rejected(self):
        with pytest.raises(bp.ConfigError, match="start < stop"):
            bp.ScanSpec(model="gaussian_pair", swept="dz", start=4.0, stop=-4.0, n_steps=5)

    def test_unknown_model_rejected(self):
        with pytest.raises(bp.ConfigError, match="unknown model"):
            bp.ScanSpec(model="squeezed", swept="dz", start=0.0, stop=1.0, n_steps=5)

    def test_unknown_fixed_key_rejected(self):
        with pytest.raises(bp.ConfigError, match="unknown parameter"):
            bp.ScanSpec(
                model="gaussian_pair",
                swept="dz",
                start=-1.0,
                stop=1.0,
                n_steps=5,
                fixed={"sigma": 1.0, "bandwidth": 2.0},
            )

    def test_dl_sweep_of_gaussian_pair_rejected(self):
        spec = bp.ScanSpec(
            model="gaussian_pair",
            swept="dl",
            start=0.0,
            stop=1.0,
            n_steps=3,
            fixed={"sigma": 1.0},
        )
        with pytest.raises(bp.ConfigError, match="cannot sweep"):
            bp.run_scan(spec)

    @pytest.mark.parametrize("start,stop", [(-1.0, math.inf), (-math.inf, math.inf),
                                            (-1e308, 1e308)])
    def test_unbounded_range_rejected(self, start, stop):
        # start < stop holds, but linspace over an infinite width yields NaN
        with pytest.raises(bp.ConfigError, match="finite width"):
            bp.ScanSpec(model="gaussian_pair", swept="dz", start=start, stop=stop, n_steps=3)

    @pytest.mark.parametrize("span", [0.0, -3.0, math.inf, math.nan])
    def test_bell_grid_span_must_be_positive_and_finite(self, span):
        spec = bp.ScanSpec(model="bell", swept="dz", start=0.0, stop=1.0, n_steps=3,
                           fixed={"omega_a": -2.0, "omega_b": 2.0}, grid_span_sigmas=span)
        with pytest.raises(bp.ConfigError, match="grid span"):
            bp.run_scan(spec)
