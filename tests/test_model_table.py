"""The model table: every entry against the CLI, key checks, and the path
delays of a row (the two-path model's fixed z2 included)."""

import argparse
import json
import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.cli import build_parser, main
from biphoton.scans import MODELS

BALANCED = bp.BeamSplitterParams.balanced()
TOL = 1e-14


def model_choices(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == "model").choices


def write_random_spectrum(path):
    grid = bp.make_grid(0.5, 3.0, 65)
    rng = np.random.default_rng(5)
    raw = rng.standard_normal((65, 65)) + 1j * rng.standard_normal((65, 65))
    bp.save_spectrum(bp.BiphotonSpectrum.from_array(grid, raw), path)


# model -> (CLI source flags, the same source as fixed parameters); every
# entry of MODELS needs one
CLI_CASES = {
    "gaussian_pair": (
        ["--model", "gaussian_pair", "--sigma", "1.2", "--pump", "gaussian", "--beta", "0.5"],
        {"sigma": 1.2, "center": 0.0, "pump_sigma": 0.5 * 1.2},
    ),
    "shih": (
        ["--model", "shih", "--beta", "0.1", "--center", "20", "--dl", "2"],
        {"center": 20.0, "sigma": 1.0, "sigma_p": 0.1, "delta_l": 2.0},
    ),
    "delta_pump": (
        ["--model", "delta_pump", "--dl", "1.5", "--parity", "odd"],
        {"sigma": 1.0, "center": 0.0, "dl": 1.5, "parity": "odd"},
    ),
    "bell": (
        ["--model", "bell", "--omega-a", "-2", "--omega-b", "3"],
        {"omega_a": -2.0, "omega_b": 3.0},
    ),
    "spectrum_file": (["--spectrum-file", "{path}"], {"path": "{path}"}),
}


@pytest.mark.parametrize("model", sorted(MODELS))
class TestEveryModel:
    def test_cli_model_choices(self, model):
        for command in ("transform", "wavepacket"):
            assert (model in model_choices(command)) == (model != "spectrum_file")

    def test_unknown_and_missing_keys_rejected(self, model):
        _, fixed = CLI_CASES[model]
        with pytest.raises(bp.ConfigError, match="unknown parameter"):
            bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                        fixed={**fixed, "bandwidth": 1.0})
        for key in MODELS[model].required:
            partial = {k: v for k, v in fixed.items() if k != key}
            with pytest.raises(bp.ConfigError, match=f"requires parameter '{key}'"):
                bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                            fixed=partial)

    def test_transform_delay_matches_apply_path_delays(self, model, tmp_path, capsys):
        path = str(tmp_path / "spectrum.csv")
        write_random_spectrum(path)
        flags, fixed = CLI_CASES[model]
        flags = [path if f == "{path}" else f for f in flags]
        fixed = {k: path if v == "{path}" else v for k, v in fixed.items()}
        dz = 0.7
        assert main(["transform", *flags, "--dz", str(dz), "--grid-points", "65"]) == 0
        report = json.loads(capsys.readouterr().out)
        grid = bp.resolve_grid(model, fixed, 65)
        delayed = bp.apply_path_delays(bp.build_model_spectrum(model, fixed, grid), dz, 0.0)
        assert abs(report["p_coinc"] - bp.coincidence_probability(delayed, BALANCED)) <= TOL
        assert report["p_coinc"] > 1e-3


def test_every_model_has_a_cli_case():
    assert set(CLI_CASES) == set(MODELS)


def shih_dl_rows(**fixed):
    # the reproduction of the ignored fixed z2
    spec = bp.ScanSpec(
        model="shih", swept="dl", start=0.5, stop=2.0, n_steps=2, grid_points=65,
        grid_span_sigmas=6.0, fixed={"center": 20.0, "sigma": 1.0, "sigma_p": 0.1, **fixed},
    )
    return bp.run_scan(spec).rows


class TestFixedZ2:
    def test_z2_gives_the_dz_rows(self):
        with_z2 = shih_dl_rows(z2=-3.0)
        with_dz = shih_dl_rows(dz=3.0)
        undelayed = shih_dl_rows()
        for a, b, c in zip(with_z2, with_dz, undelayed):
            assert a.p_numeric == b.p_numeric
            assert a.p_closed == b.p_closed
            assert abs(a.p_numeric - c.p_numeric) > 0.1

    def test_z1_and_z2_match_z1_and_dz(self):
        for a, b in zip(shih_dl_rows(z1=1.0, z2=-2.0), shih_dl_rows(z1=1.0, dz=3.0)):
            assert abs(a.p_numeric - b.p_numeric) <= TOL
            assert abs(a.p_closed - b.p_closed) <= TOL
            assert abs(a.p_reduced - b.p_reduced) <= TOL

    def test_z2_rows_match_the_per_row_oracle(self):
        grid = bp.resolve_grid("shih", {"center": 20.0, "sigma_p": 0.1}, 65, 6.0)
        for row in shih_dl_rows(z1=1.0, z2=-2.0):
            m = bp.ShihModel.from_path_difference(
                center=20.0, sigma=1.0, sigma_p=0.1, delta_l=row.param, z1=1.0, z2=-2.0
            )
            p = bp.coincidence_probability(bp.shih_spectrum(m, grid), BALANCED)
            assert abs(row.p_numeric - p) <= TOL
            assert abs(row.p_closed - bp.shih_exact(m, 3.0)) <= TOL

    def test_dl_alias_reach_reads_z2(self):
        # n = 257 on 4.5 sigma: half period 89.36; |z1 - z2| = 80 plus dl = 10
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=0.0, stop=10.0, n_steps=2, grid_span_sigmas=4.5,
            fixed={"center": 100.0, "sigma": 1.0, "sigma_p": 0.1, "z2": -80.0},
        )
        warnings = bp.run_scan(spec).metadata["truncation_warnings"]
        assert any("alias" in w and "|dz| + |dl| up to 90" in w for w in warnings)


SHIH = {"center": 20.0, "sigma": 1.0, "sigma_p": 0.1}


@pytest.mark.parametrize(
    "model,swept,fixed",
    [
        ("shih", "dz", {**SHIH, "delta_l": 1.0, "dz": 2.0}),
        ("shih", "dz", {**SHIH, "delta_l": 1.0, "z2": 2.0}),
        ("shih", "dl", {**SHIH, "delta_l": 1.0}),
        ("shih", "dl", {**SHIH, "z2": 1.0, "dz": 2.0}),
        ("delta_pump", "dl", {"sigma": 1.0, "center": 0.0, "dl": 1.0}),
    ],
    ids=["dz-swept-and-fixed", "z2-with-swept-dz", "delta_l-swept-and-fixed",
         "z2-with-fixed-dz", "dl-swept-and-fixed"],
)
def test_conflicting_delays_rejected(model, swept, fixed):
    spec = bp.ScanSpec(model=model, swept=swept, start=0.5, stop=1.5, n_steps=3, fixed=fixed,
                       grid_points=65)
    with pytest.raises(bp.ConfigError):
        bp.run_scan(spec)
    with pytest.raises(bp.ConfigError):
        bp.evaluate_scan_point(spec, 1.0)


def test_zero_delays_return_the_spectrum():
    s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0), bp.make_grid(0.0, 6.0, 33))
    assert bp.apply_path_delays(s, 0.0, 0.0) is s
    assert bp.apply_path_delays(s, 0.0, 1.0) is not s
    assert math.isclose(bp.apply_path_delays(s, 0.0, 1.0).norm_squared(), 1.0, rel_tol=1e-12)
