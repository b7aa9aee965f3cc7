"""The model table: every entry against the CLI, key checks, and the path
delays of a row (the two-path model's fixed dz included)."""

import argparse
import json
import math
import pathlib

import numpy as np
import pytest

import biphoton as bp
from biphoton.cli import _model_fixed, _parser, main
from biphoton.scans import MODELS, REQUIRED, model_params
from reference import delayed_spectrum, delayed_state, norm_squared, scan_point

BALANCED = bp.BeamSplitterParams.balanced()
TOL = 1e-14


def model_choices(command):
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
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
        for key in (key for key, default in MODELS[model].params.items() if default is REQUIRED):
            partial = {k: v for k, v in fixed.items() if k != key}
            with pytest.raises(bp.ConfigError, match=f"requires parameter '{key}'"):
                bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                            fixed=partial)

    def test_non_numeric_values_rejected(self, model):
        # every key but the text ones takes a number; a bool is no number here
        _, fixed = CLI_CASES[model]
        for key in MODELS[model].params.keys() - {"parity", "path"}:
            for bad in ("1", True, [1.0], 10**400):
                with pytest.raises(bp.ConfigError, match=f"^{key} must be a number"):
                    bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                                fixed={**fixed, key: bad})

    def test_non_text_values_rejected(self, model):
        # a path that is no str or path object could reach open() as a file
        # descriptor; neither value here can
        _, fixed = CLI_CASES[model]
        for key in MODELS[model].params.keys() & {"parity", "path"}:
            for bad in (["s.csv"], 1.5):
                with pytest.raises(bp.ConfigError, match=f"^{key} must be str"):
                    bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                                fixed={**fixed, key: bad})

    def test_transform_delay_matches_apply_path_delays(self, model, tmp_path, capsys):
        path = str(tmp_path / "spectrum.csv")
        write_random_spectrum(path)
        flags, fixed = CLI_CASES[model]
        flags = [path if f == "{path}" else f for f in flags]
        fixed = {k: path if v == "{path}" else v for k, v in fixed.items()}
        dz = 0.7
        # a spectrum file brings its own grid, and refuses a grid flag
        grid = [] if model == "spectrum_file" else ["--grid-points", "65"]
        assert main(["transform", *flags, "--dz", str(dz), *grid]) == 0
        report = json.loads(capsys.readouterr().out)
        delayed = bp.apply_path_delays(delayed_spectrum(model, fixed, 65, 6.0), dz, 0.0)
        assert abs(report["p_coinc"] - bp.coincidence_probability(delayed, BALANCED)) <= TOL
        assert report["p_coinc"] > 1e-3


def test_every_model_has_a_cli_case():
    assert set(CLI_CASES) == set(MODELS)


# the fixed dict the CLI builds, key order included: the JSON spec block of a
# scan writes it in this order
_SCAN = ["--dz-min", "-1", "--dz-max", "1", "--steps", "3", "-o", "unwritten"]
_SHIH_FLAGS = ["--beta", "0.1", "--center", "20", "--dl", "2"]
_SI = ["--units", "si", "--c-light", "3e8"]
CLI_FIXED = [
    (["transform", *CLI_CASES["gaussian_pair"][0]],
     {"sigma": 1.2, "center": 0.0, "c_light": 1.0, "pump_sigma": 0.5 * 1.2}),
    (["transform", *CLI_CASES["shih"][0]],
     {"sigma": 1.0, "sigma_p": 0.1, "center": 20.0, "delta_l": 2.0, "c_light": 1.0}),
    (["transform", *CLI_CASES["delta_pump"][0]],
     {"sigma": 1.0, "center": 0.0, "dl": 1.5, "parity": "odd", "c_light": 1.0}),
    (["transform", *CLI_CASES["bell"][0]], {"omega_a": -2.0, "omega_b": 3.0, "c_light": 1.0}),
    (["transform", "--spectrum-file", "s.csv"], {"path": "s.csv", "c_light": 1.0}),
    (["dip-scan", *_SCAN], {"sigma": 1.0, "center": 0.0, "c_light": 1.0}),
    (["dip-scan", "--pump", "gaussian", "--beta", "0.5", *_SCAN],
     {"sigma": 1.0, "center": 0.0, "c_light": 1.0, "pump_sigma": 0.5}),
    (["dip-scan", *_SI, "--pump", "gaussian", "--beta", "0.5", *_SCAN],
     {"sigma": 1.0, "center": 0.0, "c_light": 3e8, "pump_sigma": 0.5}),
    (["shih-scan", *_SHIH_FLAGS, *_SCAN],
     {"sigma": 1.0, "sigma_p": 0.1, "center": 20.0, "delta_l": 2.0, "c_light": 1.0}),
    (["shih-scan", *_SI, *_SHIH_FLAGS, *_SCAN],
     {"sigma": 1.0, "sigma_p": 0.1, "center": 20.0, "delta_l": 2.0, "c_light": 3e8}),
]


@pytest.mark.parametrize("argv,fixed", CLI_FIXED, ids=[" ".join(argv) for argv, _ in CLI_FIXED])
def test_cli_fixed_dicts_do_not_change(argv, fixed):
    built = _model_fixed(_parser().parse_args(argv))[1]
    assert list(built.items()) == list(fixed.items())


# model -> (CLI source flags that give only its required parameters, the
# same parameters as fixed); the CLI writes every default out
REQUIRED_ONLY = {
    "gaussian_pair": (["--model", "gaussian_pair"], {}),
    "shih": (["--model", "shih", "--beta", "0.1", "--center", "20"],
             {"center": 20.0, "sigma_p": 0.1}),
    "delta_pump": (["--model", "delta_pump"], {}),
    "bell": (["--model", "bell", "--omega-a", "-2", "--omega-b", "3"],
             {"omega_a": -2.0, "omega_b": 3.0}),
    "spectrum_file": (["--spectrum-file", "{path}"], {"path": "{path}"}),
}
TIMING = ("prepare_s", "rows_s", "wall_time_s")


def scan_bits(spec):
    result = bp.run_scan(spec)
    metadata = {k: v for k, v in result.metadata.items() if k not in TIMING}
    return repr(result.rows), repr(metadata)


@pytest.mark.parametrize("model", sorted(MODELS))
def test_omitted_defaults_give_the_bits_of_explicit_ones(model, tmp_path):
    path = str(tmp_path / "spectrum.csv")
    write_random_spectrum(path)
    flags, required = REQUIRED_ONLY[model]
    flags = [path if f == "{path}" else f for f in flags]
    required = {k: path if v == "{path}" else v for k, v in required.items()}
    explicit = _model_fixed(_parser().parse_args(["transform", *flags]))[1]
    assert explicit.keys() > required.keys()
    dl_key = MODELS[model].dl_key
    # a delay sweep keeps the default dl of a model with one; a dl sweep sweeps it
    sweeps = [("dz", "dz", -2.0, 2.0)] + ([("dl", dl_key, 0.5, 2.0)] if dl_key else [])
    for swept, key, start, stop in sweeps:
        omitted, written = (
            bp.ScanSpec(model=model, swept=swept, start=start, stop=stop, n_steps=5,
                        fixed={k: v for k, v in fixed.items() if k != key}, grid_points=65)
            for fixed in (required, explicit)
        )
        assert scan_bits(omitted) == scan_bits(written), swept


@pytest.mark.parametrize("model,fixed,key", [
    ("gaussian_pair", {"sigma": "1.5"}, "sigma"),
    ("gaussian_pair", {"sigma": True}, "sigma"),
    ("bell", {"omega_a": "-2", "omega_b": 3.0}, "omega_a"),
], ids=["string-sigma", "bool-sigma", "string-bell-tone"])
def test_non_numeric_value_rejected_by_run_scan(model, fixed, key):
    # these ran as 1.5, as 1.0 and raised a bare TypeError before
    with pytest.raises(bp.ConfigError, match=f"^{key} must be a number"):
        bp.run_scan(bp.ScanSpec(model=model, swept="dz", start=0.0, stop=1.0, n_steps=2,
                                fixed=fixed, grid_points=33))


def test_resolved_params():
    # defaults filled in, numbers as floats, text kept, None where it means absence
    assert model_params("shih", {"center": 20, "sigma_p": np.float32(0.5), "dz": np.int64(1)}) == {
        "center": 20.0, "sigma": 1.0, "sigma_p": 0.5, "delta_l": 0.0, "dz": 1.0, "c_light": 1.0,
    }
    bell = model_params("bell", {"omega_a": -2, "omega_b": np.int64(3)})
    assert [type(v) for v in bell.values()] == [float, float, float]
    assert model_params("delta_pump", {"parity": "odd"})["parity"] == "odd"
    assert model_params("spectrum_file", {"path": "s.csv"}) == {"path": "s.csv", "c_light": 1.0}
    path = pathlib.Path("s.csv")
    assert model_params("spectrum_file", {"path": path})["path"] is path
    assert model_params("gaussian_pair", {"pump_sigma": None}) == model_params("gaussian_pair", {})
    with pytest.raises(bp.ConfigError, match="^sigma must be a number, got None"):
        model_params("gaussian_pair", {"sigma": None})


def shih_dl_rows(**fixed):
    # a two-path dl sweep, at a fixed delay dz where one is given
    spec = bp.ScanSpec(
        model="shih", swept="dl", start=0.5, stop=2.0, n_steps=2, grid_points=65,
        grid_span_sigmas=6.0, fixed={"center": 20.0, "sigma": 1.0, "sigma_p": 0.1, **fixed},
    )
    return bp.run_scan(spec).rows


class TestFixedDz:
    def test_dz_rows_match_the_per_row_oracle(self):
        m = bp.ShihModel(center=20.0, sigma=1.0, sigma_p=0.1)
        for row in shih_dl_rows(dz=3.0):
            fixed = {"center": 20.0, "sigma_p": 0.1, "delta_l": row.param, "dz": 3.0}
            p = bp.coincidence_probability(delayed_spectrum("shih", fixed, 65, 6.0), BALANCED)
            assert abs(row.p_numeric - p) <= TOL
            assert abs(row.p_closed - bp.shih_exact(m, 3.0, row.param)) <= TOL

    def test_dl_alias_reach_reads_dz(self):
        # n = 257 on 4.5 sigma: half period 89.36; |dz| = 80 plus dl = 10
        spec = bp.ScanSpec(
            model="shih", swept="dl", start=0.0, stop=10.0, n_steps=2, grid_span_sigmas=4.5,
            fixed={"center": 100.0, "sigma": 1.0, "sigma_p": 0.1, "dz": 80.0},
        )
        warnings = bp.run_scan(spec).metadata["truncation_warnings"]
        assert any("alias" in w and "|dz| + |dl| up to 90" in w for w in warnings)


SHIH = {"center": 20.0, "sigma": 1.0, "sigma_p": 0.1}


@pytest.mark.parametrize(
    "model,swept,fixed",
    [
        ("shih", "dz", {**SHIH, "delta_l": 1.0, "dz": 2.0}),
        ("shih", "dl", {**SHIH, "delta_l": 1.0}),
        ("delta_pump", "dl", {"sigma": 1.0, "center": 0.0, "dl": 1.0}),
    ],
    ids=["dz-swept-and-fixed", "delta_l-swept-and-fixed", "dl-swept-and-fixed"],
)
def test_conflicting_delays_rejected(model, swept, fixed):
    spec = bp.ScanSpec(model=model, swept=swept, start=0.5, stop=1.5, n_steps=3, fixed=fixed,
                       grid_points=65)
    with pytest.raises(bp.ConfigError):
        bp.run_scan(spec)
    with pytest.raises(bp.ConfigError):
        scan_point(spec, 1.0)


def test_zero_delays_return_the_spectrum():
    s = bp.gaussian_pair_spectrum(bp.GaussianPairModel(0.0, 1.0), bp.make_grid(0.0, 6.0, 33))
    assert bp.apply_path_delays(s, 0.0, 0.0) is s
    assert bp.apply_path_delays(s, 0.0, 1.0) is not s
    assert math.isclose(norm_squared(bp.apply_path_delays(s, 0.0, 1.0)), 1.0, rel_tol=1e-12)
    # a factored state of every model takes the port phases in its factors
    for model in sorted(set(MODELS) - {"spectrum_file"}):
        state = delayed_state(model, CLI_CASES[model][1], 33, 6.0)
        assert not isinstance(state, bp.BiphotonSpectrum)
        assert bp.apply_path_delays(state, 0.0, 0.0) is state
        for z1, z2 in ((0.7, 0.0), (-2.5, 1.1), (0.0, 0.3)):
            delayed = bp.apply_path_delays(state, z1, z2, 1.5)
            expected = bp.apply_path_delays(state.spectrum(), z1, z2, 1.5).amplitudes
            assert np.max(np.abs(delayed.spectrum().amplitudes - expected)) <= 1e-15
