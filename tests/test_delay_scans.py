"""Delay scans read off one difference-frequency reduction, against the
per-row composition (delay the spectrum, then project it) as the oracle."""

import math

import numpy as np
import pytest

import biphoton as bp
from biphoton import fileio
from biphoton.beamsplitter import exchange_report
from biphoton.cli import main
from reference import delayed_spectrum, scan_point, symmetry_decompose

BALANCED = bp.BeamSplitterParams.balanced()
TOL = 1e-14

# (model, fixed, grid_points, grid_span_sigmas, start, stop)
EXTERNAL_DELAY_CASES = {
    "gaussian_flat": ("gaussian_pair", {"sigma": 1.0, "center": 0.0}, 257, 6.0, -4.0, 4.0),
    "gaussian_pump": (
        "gaussian_pair",
        {"sigma": 0.7, "center": 2.5, "pump_sigma": 0.35, "c_light": 2.5},
        257, 6.0, -12.0, 12.0,
    ),
    "delta_even": (
        "delta_pump",
        {"sigma": 1.0, "center": 0.0, "dl": 1.5, "parity": "even"},
        129, 6.0, -3.0, 3.0,
    ),
    "delta_odd": (
        "delta_pump",
        {"sigma": 1.0, "center": 0.0, "dl": 1.5, "parity": "odd"},
        129, 6.0, -3.0, 3.0,
    ),
    "bell": ("bell", {"omega_a": -2.0, "omega_b": 3.0}, 65, 6.0, -2.0, 2.0),
}


def oracle(s):
    """Coincidence and antisymmetric weight of one delayed spectrum."""
    return bp.coincidence_probability(s, BALANCED), symmetry_decompose(s).w_antisym


def w_antisym(s):
    """Antisymmetric weight of the CLI's transform report."""
    return exchange_report(s, BALANCED)["w_antisym"]


def externally_delayed(spec, base):
    c_light = spec.fixed.get("c_light", 1.0)
    for value in spec.values():
        yield bp.apply_path_delays(base, value, 0.0, c_light)


def assert_rows_match_oracle(result, delayed):
    for row, s in zip(result.rows, delayed):
        p, w = oracle(s)
        assert abs(row.p_numeric - p) <= TOL, row.param
        assert abs(row.w_antisym - w) <= TOL, row.param


def assert_single_points_match(spec, result, stride=4):
    for row in result.rows[::stride]:
        assert scan_point(spec, row.param) == row


class TestFastPathAgainstPerRowOracle:
    @pytest.mark.parametrize("case", sorted(EXTERNAL_DELAY_CASES))
    def test_model_scans(self, case):
        model, fixed, n, span, start, stop = EXTERNAL_DELAY_CASES[case]
        spec = bp.ScanSpec(
            model=model, swept="dz", start=start, stop=stop, n_steps=21, fixed=fixed,
            grid_points=n, grid_span_sigmas=span,
        )
        result = bp.run_scan(spec)
        base = delayed_spectrum(model, fixed, n, span)
        assert_rows_match_oracle(result, externally_delayed(spec, base))
        assert_single_points_match(spec, result)

    @pytest.mark.parametrize("seed,n", [(11, 33), (12, 65), (13, 65)])
    def test_random_spectrum_files(self, tmp_path, seed, n):
        rng = np.random.default_rng(seed)
        grid = bp.make_grid(rng.uniform(-5.0, 5.0), rng.uniform(1.0, 4.0), n)
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        path = str(tmp_path / "random.csv")
        bp.save_spectrum(bp.BiphotonSpectrum.from_array(grid, raw), path)
        spec = bp.ScanSpec(
            model="spectrum_file", swept="dz", start=-6.0, stop=6.0, n_steps=25,
            fixed={"path": path, "c_light": 1.5},
        )
        result = bp.run_scan(spec)
        assert_rows_match_oracle(result, externally_delayed(spec, bp.load_spectrum(path)))
        assert_single_points_match(spec, result)

    @pytest.mark.parametrize(
        "n,beta,x_dl,parity_k,half_range,steps",
        [
            (257, 0.1, 5.0, 319, 10.0, 21),
            (1025, 0.01, 20.0, 1273, 30.0, 7),
        ],
    )
    def test_shih_scans(self, n, beta, x_dl, parity_k, half_range, steps):
        # the per-row oracle builds each row's state with its delay, z2 = -dz
        center = parity_k * math.pi / (2.0 * x_dl)
        fixed = {"center": center, "sigma": 1.0, "sigma_p": beta, "delta_l": x_dl}
        spec = bp.ScanSpec(
            model="shih", swept="dz", start=-half_range, stop=half_range, n_steps=steps,
            fixed=fixed, grid_points=n, grid_span_sigmas=4.5,
        )
        result = bp.run_scan(spec)
        delayed = (delayed_spectrum("shih", {**fixed, "dz": dz}, n, 4.5) for dz in spec.values())
        assert_rows_match_oracle(result, delayed)
        assert_single_points_match(spec, result, stride=3)

    def test_symmetric_spectrum_at_zero_delay_is_exactly_zero(self):
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-1.0, stop=1.0, n_steps=3,
            fixed={"sigma": 1.0, "center": 1.0, "pump_sigma": 0.5},
        )
        row = bp.run_scan(spec).rows[1]
        assert row.param == 0.0
        assert row.p_numeric == 0.0
        assert row.w_antisym == 0.0

    def test_flat_pump_readme_dip_is_exactly_zero_at_zero_delay(self):
        # the README dip-scan: flat pump, n=257, dz in [-4, 4] over 81 rows
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-4.0, stop=4.0, n_steps=81,
            fixed={"sigma": 1.0},
        )
        row = bp.run_scan(spec).rows[40]
        assert row.param == 0.0
        assert row.p_numeric == 0.0
        assert row.w_antisym == 0.0


class TestDlSweepWeight:
    def test_w_antisym_matches_symmetry_decompose(self):
        fixed = {"sigma": 1.0, "center": 0.0, "parity": "even"}
        spec = bp.ScanSpec(
            model="delta_pump", swept="dl", start=0.5, stop=2.0, n_steps=4, fixed=fixed,
            grid_points=129,
        )
        for row in bp.run_scan(spec).rows:
            s = delayed_spectrum("delta_pump", {**fixed, "dl": row.param}, 129, 6.0)
            assert abs(row.w_antisym - symmetry_decompose(s).w_antisym) <= TOL


class TestAntisymmetricWeight:
    @pytest.mark.parametrize("seed,n", [(1, 3), (2, 9), (3, 33)])
    def test_matches_symmetry_decompose(self, seed, n):
        s = bp.apply_path_delays(
            bp.BiphotonSpectrum.from_array(
                bp.make_grid(0.0, 2.0, n),
                np.random.default_rng(seed).standard_normal((n, n)) + 0j,
            ),
            0.3, 0.0,
        )
        assert abs(w_antisym(s) - symmetry_decompose(s).w_antisym) <= 1e-15

    def test_symmetric_and_antisymmetric_limits(self):
        grid = bp.make_grid(0.0, 8.0, 17)
        pair = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0), grid)
        assert w_antisym(pair) == 0.0
        bell = bp.bell_antisymmetric_spectrum(-2.0, 2.0, grid)
        assert abs(w_antisym(bell) - 1.0) <= 1e-15

    def test_keeps_zero_weight_threshold(self):
        # antisymmetric part of squared weight ~1e-40, below the 1e-30 threshold
        grid = bp.make_grid(0.0, 1.0, 3)
        raw = np.ones((3, 3), dtype=complex)
        raw[0, 1] += 1e-20
        s = bp.BiphotonSpectrum.from_array(grid, raw)
        assert symmetry_decompose(s).w_antisym == 0.0
        assert w_antisym(s) == 0.0


class TestDelayAliasGuard:
    @staticmethod
    def alias_warnings(result):
        return [w for w in result.metadata["truncation_warnings"] if "alias" in w]

    def test_half_period_delay_is_flagged(self):
        # default 257-point, 6-sigma grid: period 2*pi/domega = 134.04
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=0.0, stop=134.04, n_steps=2,
            fixed={"sigma": 1.0},
        )
        result = bp.run_scan(spec)
        (warning,) = self.alias_warnings(result)
        assert "134.04" in warning

    def test_period_scales_with_c_light(self):
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-70.0, stop=0.0, n_steps=2,
            fixed={"sigma": 1.0, "c_light": 2.0},
        )
        assert not self.alias_warnings(bp.run_scan(spec))
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-134.1, stop=0.0, n_steps=2,
            fixed={"sigma": 1.0, "c_light": 2.0},
        )
        assert self.alias_warnings(bp.run_scan(spec))

    def test_short_and_common_delays_not_flagged(self):
        spec = bp.ScanSpec(
            model="gaussian_pair", swept="dz", start=-50.0, stop=50.0, n_steps=3,
            fixed={"sigma": 1.0},
        )
        assert not self.alias_warnings(bp.run_scan(spec))
        # nor is a short relative delay of the two-path source
        fixed = {"center": 319.0 * math.pi / 10.0, "sigma": 1.0, "sigma_p": 0.1, "delta_l": 5.0}
        spec = bp.ScanSpec(
            model="shih", swept="dz", start=-1.0, stop=1.0, n_steps=3, fixed=fixed,
            grid_points=129, grid_span_sigmas=4.5,
        )
        assert not self.alias_warnings(bp.run_scan(spec))

    def test_shih_scan_is_flagged(self):
        fixed = {"center": 319.0 * math.pi / 10.0, "sigma": 1.0, "sigma_p": 0.1, "delta_l": 5.0}
        spec = bp.ScanSpec(
            model="shih", swept="dz", start=-100.0, stop=0.0, n_steps=2, fixed=fixed,
            grid_points=129, grid_span_sigmas=4.5,
        )
        assert self.alias_warnings(bp.run_scan(spec))


class TestGridSizeGuard:
    def test_oversized_grid_rejected_before_allocation(self):
        with pytest.raises(bp.ConfigError, match="grid points"):
            bp.make_grid(0.0, 6.0, 200001)
        with pytest.raises(bp.ConfigError, match="grid points"):
            bp.make_grid(0.0, 6.0, 4097)
        assert bp.make_grid(0.0, 6.0, 4095).n_points == 4095

    @pytest.mark.parametrize(
        "argv",
        [
            ["dip-scan", "--dz-min", "-1", "--dz-max", "1", "--steps", "3"],
            ["transform", "--model", "gaussian_pair"],
        ],
    )
    def test_cli_exits_2(self, tmp_path, capsys, argv):
        code = main(argv + ["--grid-points", "200001", "-o", str(tmp_path / "x")])
        assert code == 2
        assert "grid points" in capsys.readouterr().err


class TestSpectrumFileReadOnce:
    @pytest.fixture
    def reads(self, monkeypatch, tmp_path):
        path = str(tmp_path / "bell.csv")
        bp.save_spectrum(bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17)),
                         path)
        calls = []
        original = fileio.load_spectrum

        def counting(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(fileio, "load_spectrum", counting)
        return path, calls

    def test_cli_transform(self, reads, tmp_path):
        path, calls = reads
        assert main(["transform", "--spectrum-file", path,
                            "-o", str(tmp_path / "r.json")]) == 0
        assert calls == [path]

    def test_run_scan(self, reads):
        path, calls = reads
        spec = bp.ScanSpec(model="spectrum_file", swept="dz", start=-1.0, stop=1.0,
                           n_steps=5, fixed={"path": path})
        bp.run_scan(spec)
        assert calls == [path]
