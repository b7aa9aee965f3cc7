import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import biphoton as bp
from biphoton import cli
from biphoton.cli import _factorization_residual, _parser, main
from biphoton.models import _gaussian_pair_state
from biphoton.spectrum import _leading_singular_pair, _time_transform
from biphoton.validation import ALL_CRITERIA, run_criteria


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    headers = lines[0].split(",")
    return [
        {h: float(tok) for h, tok in zip(headers, line.split(","))} for line in lines[1:]
    ], headers


class TestDipScan:
    def test_basic_csv_scan(self, tmp_path, capsys):
        out = tmp_path / "dip.csv"
        code = main([
            "dip-scan", "--sigma", "1", "--dz-min", "-4", "--dz-max", "4",
            "--steps", "81", "--units", "natural", "-o", str(out),
        ])
        assert code == 0
        rows, headers = read_csv(out)
        assert headers == ["param", "P_numeric", "P_closed", "w_antisym"]
        assert len(rows) == 81
        center = rows[40]
        assert center["param"] == 0.0
        assert center["P_closed"] == 0.0
        assert center["P_numeric"] < 1e-12
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert metadata["grid"]["n_points"] == 257

    def test_json_format_matches_csv_values(self, tmp_path):
        csv_path = tmp_path / "dip.csv"
        json_path = tmp_path / "dip.json"
        argv = ["dip-scan", "--dz-min", "-2", "--dz-max", "2", "--steps", "11",
                "--grid-points", "65"]
        assert main(argv + ["-o", str(csv_path)]) == 0
        assert main(argv + ["--format", "json", "-o", str(json_path)]) == 0
        csv_rows, headers = read_csv(csv_path)
        json_rows = json.loads(json_path.read_text())["rows"]
        for crow, jrow in zip(csv_rows, json_rows):
            for h in headers:
                assert crow[h] == jrow[h]

    def test_gaussian_pump_flag(self, tmp_path):
        out = tmp_path / "dip.csv"
        code = main([
            "dip-scan", "--pump", "gaussian", "--beta", "0.5", "--dz-min", "-1",
            "--dz-max", "1", "--steps", "5", "--grid-points", "129", "-o", str(out),
        ])
        assert code == 0
        rows, _ = read_csv(out)
        assert rows[2]["P_numeric"] < 1e-12

    def test_huge_step_count_exits_2_before_allocating(self, tmp_path, capsys):
        code = main(["dip-scan", "--dz-min", "-1", "--dz-max", "1", "--steps", str(10**12),
                     "--grid-points", "33", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and re.search(r"\bsteps\b", err)
        assert not (tmp_path / "x.csv").exists()

    def test_single_step_exits_2(self, tmp_path, capsys):
        code = main(["dip-scan", "--dz-min", "-4", "--dz-max", "4", "--steps", "1",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "steps must be >= 2" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert main(["dip-scan", "--dz-min", "-4", "--dz-max", "4", "--steps", "5",
                     "--sideband", "3", "-o", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --sideband 3\n"

    def test_gaussian_pump_requires_beta(self, tmp_path, capsys):
        code = main(["dip-scan", "--pump", "gaussian", "--dz-min", "-1", "--dz-max", "1",
                     "--steps", "5", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--beta" in capsys.readouterr().err

    def test_si_units_require_c_light(self, tmp_path, capsys):
        code = main(["dip-scan", "--units", "si", "--dz-min", "-1", "--dz-max", "1",
                     "--steps", "5", "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "--c-light" in capsys.readouterr().err

    def test_si_units_reproduce_natural_dimensionless_curve(self, tmp_path):
        natural = tmp_path / "nat.csv"
        si = tmp_path / "si.csv"
        assert main(["dip-scan", "--dz-min", "-2", "--dz-max", "2", "--steps", "5",
                     "--grid-points", "65", "-o", str(natural)]) == 0
        c = 299792458.0
        sigma = 2.0e12
        assert main(["dip-scan", "--units", "si", "--c-light", str(c),
                     "--sigma", str(sigma), "--center", "0",
                     "--dz-min", str(-2 * c / sigma), "--dz-max", str(2 * c / sigma),
                     "--steps", "5", "--grid-points", "65", "-o", str(si)]) == 0
        nat_rows, _ = read_csv(natural)
        si_rows, _ = read_csv(si)
        for a, b in zip(nat_rows, si_rows):
            assert abs(a["P_closed"] - b["P_closed"]) < 1e-12
            assert abs(a["P_numeric"] - b["P_numeric"]) < 1e-9


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return json.loads(out.getvalue())


# an 800 nm carrier with a 1e10 rad/s bandwidth, in SI units; --dz 3e-2 is c/sigma
_SI = ["--units", "si", "--c-light", "3e8", "--center", "2.35e15", "--sigma", "1e10"]


class TestCarrierFreeFrequencies:
    """Envelopes and phases come from the grid offsets and one scalar carrier,
    so any finite center answers; only a frequency axis is refused."""

    def test_si_transform_matches_natural_units(self):
        si = _report(["transform", "--model", "gaussian_pair", *_SI, "--dz", "3e-2"])
        natural = _report(["transform", "--model", "gaussian_pair", "--sigma", "1", "--dz", "1"])
        assert si.keys() == natural.keys()
        for key, value in natural.items():
            if isinstance(value, float):
                assert abs(si[key] - value) <= 1e-15, key
        assert si["warnings"] == natural["warnings"] == []

    def test_si_dip_scan_matches_natural_units(self, tmp_path):
        natural, si = tmp_path / "nat.csv", tmp_path / "si.csv"
        assert main(["dip-scan", "--dz-min", "-2", "--dz-max", "2", "--steps", "5",
                     "--grid-points", "65", "-o", str(natural)]) == 0
        assert main(["dip-scan", *_SI, "--dz-min", "-6e-2", "--dz-max", "6e-2", "--steps", "5",
                     "--grid-points", "65", "-o", str(si)]) == 0
        nat_rows, headers = read_csv(natural)
        si_rows, _ = read_csv(si)
        for a, b in zip(nat_rows, si_rows, strict=True):
            for key in headers[1:]:
                assert abs(a[key] - b[key]) <= 1e-15, key

    @pytest.mark.parametrize("dz", ["0", "0.7"])
    def test_far_center_answers(self, dz):
        report = _report(["transform", "--model", "gaussian_pair", "--center", "1e300",
                          "--dz", dz])
        assert abs(report["p_coinc"] - bp.hom_dip_closed(1.0, float(dz))) <= 1e-15

    @pytest.mark.parametrize("center", ["0", "1e17"])
    def test_truncation_is_flagged_at_any_carrier(self, center):
        # a 2-sigma grid truncates the 4-sigma support; floats near 1e17 lie
        # 16 apart, so the absolute bounds would round the truncation away
        report = _report(["transform", "--model", "gaussian_pair", "--center", center,
                          "--grid-span", "2", "--grid-points", "33"])
        assert len(report["warnings"]) == 1
        assert report["warnings"][0].endswith("the sampled spectrum is truncated")

    def test_si_time_export_answers(self, tmp_path, capsys):
        out = tmp_path / "wp.csv"
        assert main(["wavepacket", "--domain", "time", "--model", "gaussian_pair", *_SI,
                     "--grid-points", "65", "-o", str(out)]) == 0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert abs(metadata["parseval_power"] - 1.0) < 1e-12
        assert out.read_text().startswith("time,")

    def test_si_frequency_export_is_refused(self, tmp_path, capsys):
        out = tmp_path / "wp.csv"
        assert main(["wavepacket", "--domain", "frequency", "--model", "gaussian_pair", *_SI,
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(r"\bcenter\b", err)
        assert not out.exists()

    def test_si_frequency_export_is_refused_before_any_matrix(self, tmp_path, capsys,
                                                              monkeypatch):
        def no_matrix(s):
            raise AssertionError("a matrix reduction ran before the axis was refused")

        monkeypatch.setattr(cli, "_leading_singular_pair", no_matrix)
        assert main(["wavepacket", "--domain", "frequency", "--model", "gaussian_pair", *_SI,
                     "--grid-points", "2049", "-o", str(tmp_path / "wp.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and re.search(r"\bcenter\b", err)


class TestShihScan:
    def test_zero_path_difference_reproduces_dip(self, tmp_path, capsys):
        out = tmp_path / "shih.csv"
        code = main([
            "shih-scan", "--beta", "0.1", "--center", "100", "--dl", "0",
            "--dz-min", "-3", "--dz-max", "3", "--steps", "7",
            "--grid-points", "129", "--grid-span", "4.5", "-o", str(out),
        ])
        assert code == 0
        rows, headers = read_csv(out)
        assert headers == ["param", "P_numeric", "P_exact", "P_reduced"]
        assert rows[3]["param"] == 0.0
        assert rows[3]["P_exact"] == 0.0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert metadata["norm_factor_b"] == 1.0

    def test_overflowing_beta_squared(self, tmp_path, capsys):
        # beta**2 past the float range: the pump ratio takes its limit 1, and
        # dl = 0 keeps every row of the 1e-150 bandwidth at P_exact = 0
        out = tmp_path / "x.csv"
        assert main(["shih-scan", "--beta", "1e300", "--sigma", "1e-150", "--center", "1e-149",
                     "--dl", "0", "--dz-min", "-1", "--dz-max", "1", "--steps", "3",
                     "--grid-points", "33", "-o", str(out)]) == 0
        rows, _ = read_csv(out)
        assert [row["P_exact"] for row in rows] == [0.0, 0.0, 0.0]
        assert json.loads(capsys.readouterr().out)["metadata"]["norm_factor_b"] == 1.0

    def test_odd_parity_peak(self, tmp_path, capsys):
        center = 319.0 * math.pi / 10.0
        out = tmp_path / "peak.csv"
        code = main([
            "shih-scan", "--beta", "0.1", "--center", str(center), "--dl", "5",
            "--dz-min", "-10", "--dz-max", "10", "--steps", "21",
            "--grid-points", "257", "--grid-span", "4.5", "-o", str(out),
        ])
        assert code == 0
        rows, _ = read_csv(out)
        peak = max(rows, key=lambda r: r["P_numeric"])
        assert peak["param"] == 0.0
        assert peak["P_numeric"] > 0.9
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        assert abs(metadata["parity_4dl_over_lambda"] - 1.0) < 1e-9


class TestTransform:
    def test_bell_is_trapped(self, capsys):
        code = main(["transform", "--model", "bell", "--omega-a", "-2", "--omega-b", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["p_coinc"] - 1.0) < 1e-12
        assert abs(report["trapping_fidelity"] - 1.0) < 1e-12
        assert abs(report["w_antisym"] - 1.0) < 1e-12
        assert abs(report["exchange_overlap"] + 1.0) < 1e-12

    def test_gaussian_pair_coalesces_unentangled(self, capsys):
        code = main(["transform", "--model", "gaussian_pair", "--sigma", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p_coinc"] < 1e-12
        assert abs(report["rank1_fraction"] - 1.0) < 1e-12
        assert abs(report["p_11"] - 0.5) < 1e-10

    def test_transparent_splitter_is_identity(self, capsys):
        code = main(["transform", "--model", "gaussian_pair", "--theta", "0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["p_coinc"] - 1.0) < 1e-12
        assert report["p_11"] == 0.0 and report["p_22"] == 0.0

    def test_spectrum_file_source(self, tmp_path, capsys):
        s = bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17))
        path = tmp_path / "bell.csv"
        bp.save_spectrum(s, str(path))
        code = main(["transform", "--spectrum-file", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["p_coinc"] - 1.0) < 1e-12

    def test_malformed_spectrum_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("omega,1,2,3\n1,0j,oops,0j\n2,0j,0j,0j\n3,0j,0j,0j\n")
        code = main(["transform", "--spectrum-file", str(path)])
        assert code == 2
        assert "line 2, column 3" in capsys.readouterr().err

    def test_model_and_file_are_exclusive(self, capsys):
        assert main(["transform", "--model", "bell", "--spectrum-file", "x.csv"]) == 2
        assert capsys.readouterr().err == (
            "error: argument --spectrum-file: not allowed with argument --model\n"
        )

    def test_delayed_gaussian_pair_report(self, capsys):
        code = main(["transform", "--model", "gaussian_pair", "--dz", "1.0",
                     "--grid-points", "129"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = bp.hom_dip_closed(1.0, 1.0)
        assert abs(report["p_coinc"] - expected) < 1e-9


# relative delays on the default 257-point, 6-sigma grid, whose half delay
# period pi*c/domega is 67.02; the shih input's relative delay is its dz.  A
# model with a path difference dl reaches |dz| + |dl|, and its warning names
# both, as a dl sweep's does.
_RELATIVE = "relative delay |z1 - z2| up to "
_PATH = "path delay |dz| + |dl| up to "
_SHIH_90 = ["--model", "shih", "--beta", "0.1", "--center", "90"]
_ALIAS_INPUTS = [
    (["--model", "gaussian_pair", "--dz", "67"], None),
    (["--model", "gaussian_pair", "--dz=-67.1"], _RELATIVE),
    (["--model", "gaussian_pair", "--dz", "1e300"], _RELATIVE),
    (_SHIH_90 + ["--dl", "3", "--dz", "3"], None),
    (_SHIH_90 + ["--dl", "3", "--dz", "70"], _PATH),
    (_SHIH_90 + ["--dl", "66", "--dz=-1"], None),
    (_SHIH_90 + ["--dl", "66", "--dz=-1.1"], _PATH),
    (["--model", "delta_pump", "--dl", "1"], None),
    (["--model", "delta_pump", "--dl", "1000"], _PATH),
    (["--model", "delta_pump", "--parity", "odd", "--dl", "67.1"], _PATH),
]


@pytest.mark.parametrize("flags,prefix", _ALIAS_INPUTS)
@pytest.mark.parametrize("command", ["transform", "wavepacket"])
def test_aliasing_input_delay_is_flagged(tmp_path, capsys, command, flags, prefix):
    out = tmp_path / "out.json"
    assert main([command, *flags, "-o", str(out)]) == 0
    if command == "transform":
        warnings = json.loads(out.read_text())["warnings"]
    else:
        warnings = json.loads(capsys.readouterr().out)["metadata"]["warnings"]
    if prefix is not None:
        assert len(warnings) == 1
        assert warnings[0].startswith(prefix)
        assert "2*pi*c/domega = 134.041" in warnings[0]
    else:
        assert warnings == []


def test_aliasing_path_difference_on_a_narrow_grid_is_flagged(capsys):
    # half the delay period of the 257-point, 4.5-sigma grid is 89.4
    assert main(["transform", *_SHIH_90, "--dl", "500", "--grid-span", "4.5"]) == 0
    warnings = json.loads(capsys.readouterr().out)["warnings"]
    assert len(warnings) == 1 and warnings[0].startswith(_PATH + "500 ")


class TestWavepacket:
    def test_sine_spectrum_has_zero_diagonal(self, tmp_path, capsys):
        out = tmp_path / "wp.csv"
        code = main(["wavepacket", "--model", "delta_pump", "--parity", "odd",
                     "--dl", "1", "--grid-points", "65", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("omega,")
        matrix = np.array([[float(t) for t in line.split(",")[1:]] for line in lines[1:]])
        assert np.all(np.diag(matrix) == 0.0)
        assert matrix.max() > 0.0

    def test_gaussian_pair_peaks_at_center(self, tmp_path, capsys):
        out = tmp_path / "wp.csv"
        code = main(["wavepacket", "--model", "gaussian_pair", "--center", "5",
                     "--grid-points", "65", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        matrix = np.array([[float(t) for t in line.split(",")[1:]] for line in lines[1:]])
        assert matrix[32, 32] == matrix.max()

    def test_time_domain_reports_factorization_residual(self, tmp_path, capsys):
        out = tmp_path / "wp.json"
        code = main(["wavepacket", "--model", "gaussian_pair", "--domain", "time",
                     "--grid-points", "65", "--format", "json", "-o", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["axis_label"] == "time"
        assert payload["metadata"]["factorization_residual"] < 1e-9
        assert abs(payload["metadata"]["parseval_power"] - 1.0) < 1e-9

    def test_fresh_process_export_with_a_live_blas_pool(self, tmp_path, capsys):
        # a fresh process with a two-thread BLAS pool and warnings as errors
        # prints one metadata line and writes the bytes of this process
        argv = ["wavepacket", "--model", "gaussian_pair", "--sigma", "1.3", "--dz", "0.4",
                "--grid-points", "513", "--domain", "time"]
        fresh, here = tmp_path / "fresh.csv", tmp_path / "here.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": os.path.dirname(os.path.dirname(bp.__file__))}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "biphoton", *argv, "-o", str(fresh)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert main(argv + ["-o", str(here)]) == 0
        assert fresh.read_bytes() == here.read_bytes()
        lines = proc.stdout.splitlines()
        assert len(lines) == 1 and proc.stdout.count("metadata") == 1
        assert json.loads(lines[0]).keys() == json.loads(capsys.readouterr().out).keys()

    def test_json_export_equals_the_csv_values(self, tmp_path, capsys):
        argv = ["wavepacket", "--model", "delta_pump", "--dl", "1.5", "--grid-points", "33",
                "--domain", "time"]
        csv_path, json_path = tmp_path / "wp.csv", tmp_path / "wp.json"
        assert main(argv + ["-o", str(csv_path)]) == 0
        assert main(argv + ["--format", "json", "-o", str(json_path)]) == 0
        payload = json.loads(json_path.read_text())
        header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()]
        assert payload["axis_label"] == header[0] == "time"
        assert payload["axis"] == [float(t) for t in header[1:]]
        assert payload["magnitudes"] == [[float(t) for t in row[1:]] for row in rows]
        capsys.readouterr()

    def test_sine_with_zero_dl_exits_3(self, tmp_path, capsys):
        code = main(["wavepacket", "--model", "delta_pump", "--parity", "odd",
                     "--dl", "0", "--grid-points", "65", "-o", str(tmp_path / "x.csv")])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["model", "spectrum file"])
    def test_time_export_holds_two_matrices(self, tmp_path, capsys, monkeypatch, source):
        # from the loaded input on, the frequency matrix and the time matrix
        # are the only n x n arrays alive at once; the CSV and the metadata
        # are those of the library's time wavepacket
        n = 257
        if source == "model":
            src = ["--model", "gaussian_pair", "--center", "0.4", "--sigma", "1.2", "--dz", "0.8",
                   "--grid-points", str(n)]
        else:
            grid = bp.make_grid(0.4, 7.2, n)
            s = bp.apply_path_delays(
                _gaussian_pair_state(bp.GaussianPairModel(0.4, 1.2), grid), 0.8, 0.0
            ).spectrum()
            s = bp.BiphotonSpectrum.from_array(grid, s.amplitudes + 0.1 * s.amplitudes.T)
            bp.save_spectrum(s, str(tmp_path / "s.csv"))
            src = ["--spectrum-file", str(tmp_path / "s.csv")]
        out = tmp_path / "wp.csv"
        argv = ["wavepacket", *src, "--domain", "time", "-o", str(out)]
        load = cli._load_input_state

        def loaded(args):
            state = load(args)
            tracemalloc.reset_peak()
            return state

        monkeypatch.setattr(cli, "_load_input_state", loaded)
        assert main(argv) == 0  # warm the caches
        capsys.readouterr()
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / (16 * n * n) <= 2.05  # measured 2.03, 3.03 with the matrix kept

        state = load(_parser().parse_args(argv))
        rank1, sigma, u, v = _leading_singular_pair(state)
        packet = bp.time_domain(state.spectrum() if source == "model" else state)
        metadata = {"domain": "time", "rank1_fraction": rank1, "warnings": [],
                    "parseval_power": packet.total_power()}
        if source == "model":
            metadata["factorization_residual"] = _factorization_residual(
                state.grid, packet, sigma * u, np.conj(v))
        expected = "time," + ",".join(f"{x:.17g}" for x in packet.time_axis) + "\n" + "".join(
            f"{x:.17g}," + ",".join(f"{m:.17g}" for m in row) + "\n"
            for x, row in zip(packet.time_axis, np.abs(packet.values))
        )
        assert out.read_bytes() == expected.encode()
        assert capsys.readouterr().out == json.dumps({"metadata": metadata}) + "\n"

    def test_factorization_residual_matches_the_whole_matrix(self):
        grid = bp.make_grid(0.4, 7.2, 257)
        s = bp.apply_path_delays(
            _gaussian_pair_state(bp.GaussianPairModel(0.4, 1.2), grid), 0.8, 0.0
        ).spectrum()
        packet = bp.time_domain(s)
        _, sigma, u, v = _leading_singular_pair(s.amplitudes)
        outer = np.outer(_time_transform(sigma * u, grid), _time_transform(np.conj(v), grid))
        whole = np.max(np.abs(packet.values - outer)) / np.max(np.abs(packet.values))
        assert _factorization_residual(grid, packet, sigma * u, np.conj(v)) == whole
        # by slabs of rows: the whole-matrix differences held two matrices
        tracemalloc.start()
        try:
            _factorization_residual(grid, packet, sigma * u, np.conj(v))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / s.amplitudes.nbytes <= 0.75

    def test_time_grid_past_the_float_range_exits_2(self, tmp_path, capsys):
        # a 33-point grid of spacing 1.7e-309 has a time step of 1.1e308 and a
        # reach past the largest float: no time axis, rather than inf and NaN
        out = tmp_path / "x.csv"
        code = main(["wavepacket", "--model", "bell", "--omega-a", "1e-308", "--omega-b", "-0",
                     "--grid-points", "33", "--domain", "time", "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid spacing ") and err.count("\n") == 1
        assert not out.exists()


class TestFileErrors:
    def test_missing_spectrum_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        code = main(["transform", "--spectrum-file", str(missing)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "x.csv"
        code = main(["dip-scan", "--dz-min", "-1", "--dz-max", "1", "--steps", "3",
                     "--grid-points", "33", "-o", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


_BELL = ["transform", "--model", "bell", "--omega-a", "-2", "--omega-b", "2"]
_DIP = ["dip-scan", "--steps", "3"]
_SHIH = ["shih-scan", "--beta", "0.1", "--center", "100", "--dl", "5", "--steps", "3"]


_README_SHIH = ["shih-scan", "--beta", "0.01", "--center", "78.61835615608457", "--dl", "20",
                "--dz-min", "-30", "--dz-max", "30", "--steps", "61", "--grid-points", "1025",
                "--grid-span", "4.5"]


class TestShihScanPath:
    def test_csv_bytes_do_not_depend_on_the_blas_thread_count(self, tmp_path):
        # the scan reduction uses no BLAS, so its bits cannot follow the pool size
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bp.__file__))}
        tables = []
        for threads in ("1", "2"):
            out = tmp_path / f"peak{threads}.csv"
            subprocess.run(
                [sys.executable, "-m", "biphoton", *_README_SHIH, "-o", str(out)],
                env={**env, "OPENBLAS_NUM_THREADS": threads}, check=True, capture_output=True,
                timeout=120,
            )
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]
        assert tables[0].count(b"\n") == 62

    def test_annihilating_modulation_exits_3(self, tmp_path, capsys):
        # every point of the 3-point grid sits on a zero of cos(omega * dl / c)
        code = main(["shih-scan", "--beta", "0.5", "--center", repr(1.5 * math.pi), "--dl", "1",
                     "--grid-points", "3", "--grid-span", repr(math.pi), "--steps", "3",
                     "--dz-min", "-1", "--dz-max", "1", "-o", str(tmp_path / "x.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: degenerate spectrum: path-difference modulation annihilates "
            "the sampled support\n"
        )

    def test_odd_delta_pump_at_zero_dl_exits_3(self, tmp_path, capsys):
        # sin(nu * 0) annihilates the state, as any path-difference node does
        code = main(["transform", "--model", "delta_pump", "--parity", "odd", "--dl", "0",
                     "-o", str(tmp_path / "x.json")])
        assert code == 3
        assert capsys.readouterr().err == (
            "numerical failure: degenerate spectrum: path-difference modulation annihilates "
            "the sampled support\n"
        )

    def test_exact_probability_is_clamped_to_zero(self, tmp_path):
        # near dz = dl = 0 the closed form rounded to -1.1e-16
        out = tmp_path / "x.csv"
        assert main(["shih-scan", "--beta", "1e-3", "--center", "1e-3", "--dl", "1e-3",
                     "--dz-min", "0", "--dz-max", "1e-3", "--steps", "3", "--grid-points", "33",
                     "-o", str(out)]) == 0
        p_exact = [row["P_exact"] for row in read_csv(out)[0]]
        assert p_exact[0] == 0.0
        assert all(0.0 <= p <= 1.0 for p in p_exact)

    def test_omitted_pump_width_factor_is_noted(self, tmp_path, capsys):
        # sigma*dl/c = 20 and beta = 0.1 pass the first two notes, but the limit
        # form's omitted factor exp(-(beta*sigma*dl/c)**2 / (2(2 + beta**2))) is 0.37
        out = tmp_path / "x.csv"
        assert main(["shih-scan", "--beta", "0.1", "--center", "90", "--dl", "20",
                     "--dz-min", "-3", "--dz-max", "3", "--steps", "7", "-o", str(out)]) == 0
        notes = json.loads(capsys.readouterr().out)["metadata"]["regime_notes"]
        assert notes == ["reduced form assumes beta*sigma*delta_l/c << 1; have 2"]
        gap = max(abs(row["P_exact"] - row["P_reduced"]) for row in read_csv(out)[0])
        assert gap > 0.3

    @pytest.mark.parametrize("argv", [
        _README_SHIH,
        # criterion 7's point: 4*dl/lambda = 1001 at beta = 0.01 and sigma*dl/c = 20
        [*_README_SHIH[:3], "--center", repr(1001.0 * math.pi / 40.0), *_README_SHIH[5:]],
        # dl = 0, where P_reduced reads -0.5 at dz = 0
        ["shih-scan", "--beta", "1e300", "--sigma", "1e-150", "--center", "1e-149", "--dl", "0",
         "--dz-min", "-1", "--dz-max", "1", "--steps", "3", "--grid-points", "33"],
        ["shih-scan", "--beta", "0.5", "--center", "100", "--dl", "2", "--dz-min", "-1",
         "--dz-max", "1", "--steps", "3", "--grid-points", "65"],
    ], ids=["readme", "criterion-7", "dl-0", "every-note"])
    def test_each_regime_note_is_present_exactly_when_its_number_crosses(
        self, tmp_path, capsys, argv
    ):
        out = tmp_path / "x.csv"
        assert main([*argv, "-o", str(out)]) == 0
        metadata = json.loads(capsys.readouterr().out)["metadata"]
        beta, xl, beta_xl = (metadata[key] for key in
                             ("beta", "sigma_dl_over_c", "beta_sigma_dl_over_c"))
        sigma = float(argv[argv.index("--sigma") + 1]) if "--sigma" in argv else 1.0
        assert beta == pytest.approx(float(argv[argv.index("--beta") + 1]), rel=1e-15)
        assert xl == pytest.approx(sigma * float(argv[argv.index("--dl") + 1]), rel=1e-15)
        assert beta_xl == beta * xl
        crossed = {
            "reduced form assumes sigma*delta_l/c": xl < bp.models._PATH_DIFFERENCE_LIMIT,
            "reduced form assumes beta <<": beta > bp.models._BETA_LIMIT,
            "reduced form assumes beta*sigma": beta_xl > bp.models._PUMP_WIDTH_LIMIT,
        }
        for prefix, expected in crossed.items():
            present = any(note.startswith(prefix) for note in metadata["regime_notes"])
            assert present == expected, prefix
        if xl == 0.0:
            p_reduced = {row["param"]: row["P_reduced"] for row in read_csv(out)[0]}
            assert p_reduced[0.0] == -0.5

    def test_non_finite_path_difference_exits_2(self, tmp_path, capsys):
        code = main(["shih-scan", "--beta", "0.1", "--center", "100", "--dl", "inf",
                     "--steps", "3", "--dz-min", "-1", "--dz-max", "1",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: half path difference dl = inf must give a finite phase omega*dl/c\n"
        )


    def test_delays_past_the_square_range_exit_0(self, tmp_path):
        # (sigma dz / c)**2 past the float range raised OverflowError in the
        # closed forms; as a product it is inf, and each term exp(-inf) = 0
        out = tmp_path / "x.csv"
        assert main(["shih-scan", "--beta", "0.1", "--center", "90", "--dl", "3",
                     "--dz-min", "-1e200", "--dz-max", "1e200", "--steps", "3",
                     "--grid-points", "33", "-o", str(out)]) == 0
        rows = read_csv(out)[0]
        for row in (rows[0], rows[-1]):
            assert (row["P_exact"], row["P_reduced"]) == (0.5, 0.5)

    @pytest.mark.parametrize("command", [
        _SHIH[:5] + ["--dl", "1e308", "--steps", "3"],
        ["transform", "--model", "shih", "--beta", "0.1", "--center", "100", "--dl", "1e308"],
    ], ids=["shih-scan", "transform"])
    def test_overflowing_path_difference_names_dl(self, tmp_path, capsys, command):
        # the phase omega * dl / c of a finite dl overflows: one error line that
        # names dl, before any plane wave is formed
        argv = command + ["--grid-points", "33", "-o", str(tmp_path / "x.csv")]
        if command[0] == "shih-scan":
            argv += ["--dz-min", "-1", "--dz-max", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: half path difference dl = 1e+308 must give a finite phase omega*dl/c\n"
        )


def _reject(constant):
    raise AssertionError(f"{constant} in the output")


# extreme values of the tones and path differences of the one-hot factored
# sources, each given as --flag=value
_EXTREMES = ["0", "-0", "5e-324", "-5e-324", "1e308", "-1e308", "inf"]
_FACTORED_ONE_HOT = [
    *(["--model", "bell", f"--omega-a={v}", "--omega-b", "1"] for v in _EXTREMES),
    *(["--model", "bell", "--omega-a", "-1", f"--omega-b={v}"] for v in _EXTREMES),
    *(["--model", "bell", "--omega-a", "-1", "--omega-b", "1", f"--dz={v}"] for v in _EXTREMES),
    *(["--model", "delta_pump", "--parity", parity, f"--dl={v}"]
      for parity in ("even", "odd") for v in _EXTREMES),
    *(["--model", "delta_pump", "--parity", "odd", "--dl", "1", f"--dz={v}"] for v in _EXTREMES),
]


class TestExtremeFactoredInputs:
    @pytest.mark.parametrize("command", [
        ["transform"],
        ["wavepacket", "--domain", "time"],
    ], ids=["transform", "wavepacket"])
    @pytest.mark.parametrize("flags", _FACTORED_ONE_HOT, ids=" ".join)
    def test_documented_exit_and_finite_output(self, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(command + flags + ["--grid-points", "33", "-o", str(out)])
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        if code != 0:
            assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
            return
        assert captured.err == ""
        text = out.read_text() + captured.out
        json.loads(out.read_text() if command[0] == "transform" else captured.out,
                   parse_constant=_reject)
        for token in re.split(r'[\s,:\[\]{}"]+', text):
            try:
                value = float(token)
            except ValueError:
                continue
            assert math.isfinite(value), token


class TestNegativeNumbersInExponentForm:
    # argparse alone reads only -1 and -.5 as negative numbers: these tokens
    # are values, and the non-finite ones meet the one-line validation error
    @pytest.mark.parametrize("argv,code,err", [
        (["dip-scan", "--dz-min", "-4e0", "--dz-max", "4", "--steps", "3"], 0, ""),
        (_SHIH + ["--dz-min", "-1E+1", "--dz-max", "10"], 0, ""),
        (_SHIH + ["--dz-min", "-inf", "--dz-max", "1"],
         2, "error: scan range [-inf, 1.0] must have a finite width\n"),
        (["transform", "--model", "bell", "--omega-a", "-5e-324", "--omega-b", "1"], 0, ""),
        (["wavepacket", "--model", "gaussian_pair", "--dz", "-1e0"], 0, ""),
        (["validate", "--only", "-1e0"],
         2, "error: --only expects comma-separated criterion numbers, got '-1e0'\n"),
    ], ids=["dip-scan", "shih-scan", "shih-scan-inf", "transform", "wavepacket", "validate"])
    def test_is_read_as_a_value(self, tmp_path, capsys, argv, code, err):
        if argv[0] != "validate":
            argv = argv + ["--grid-points", "33", "-o", str(tmp_path / "out")]
        assert main(argv) == code
        assert capsys.readouterr().err == err

    def test_scan_starts_at_the_negative_value(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["dip-scan", "--dz-min", "-4e0", "--dz-max", "4", "--steps", "3",
                     "--grid-points", "33", "-o", str(out)]) == 0
        assert [row["param"] for row in read_csv(out)[0]] == [-4.0, 0.0, 4.0]


# pump widths, carriers, path differences and delays at the float extremes,
# the ordinary ones first: beta = 1e-30 leaves a one-entry pump support
_EXTREME = st.sampled_from(["1e-3", "1e-30", "0", "5e-324", "1e308", "inf", "nan",
                            "-0", "-5e-324", "-1e-30", "-1e-3", "-1e308", "-inf"])


def _run_contract(argv):
    """``main(argv)`` keeps the CLI contract: no traceback, a documented exit
    code, one error line and no RuntimeWarning.  Returns the code and stdout."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert code in (0, 2, 3)
    err = stderr.getvalue()
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    return code, stdout.getvalue()


def _check_contract(argv, out):
    """``main(argv)`` on 33 points keeps the CLI contract of :func:`_run_contract`,
    and on success writes strict JSON (the ``transform`` report, or stdout),
    finite numbers, probabilities in [0, 1] and a rank-1 fraction in [0, 1]."""
    if out.exists():
        out.unlink()
    code, stdout = _run_contract(argv + ["--grid-points", "33", "-o", str(out)])
    if code != 0:
        return
    text = out.read_text()
    report = text if argv[0] == "transform" else stdout
    parsed = json.loads(report, parse_constant=_reject, parse_float=_finite)
    if argv[0] in ("transform", "wavepacket"):
        fields = parsed if argv[0] == "transform" else parsed["metadata"]
        assert 0.0 <= fields["rank1_fraction"] <= 1.0, fields["rank1_fraction"]
        if "parseval_power" in fields:
            assert abs(fields["parseval_power"] - 1.0) <= 1e-12, fields["parseval_power"]
    if argv[0] == "transform":
        for key in ("p_11", "p_22", "p_coinc", "w_antisym", "trapping_fidelity"):
            assert 0.0 <= parsed[key] <= 1.0, (key, parsed[key])
        assert -1.0 <= parsed["exchange_overlap"] <= 1.0, parsed["exchange_overlap"]
        assert abs(parsed["p_11"] + parsed["p_22"] + parsed["p_coinc"] - 1.0) <= 1e-12, parsed
    if argv[0] != "transform":
        # a CSV table: every cell, and the axis of a matrix's header line
        lines = text.splitlines()
        axis = lines[0].split(",")[1:] if argv[0] == "wavepacket" else []
        for token in axis + [token for line in lines[1:] for token in line.split(",")]:
            _finite(token)
    if argv[0] in ("dip-scan", "shih-scan"):
        _check_scan_probabilities(read_csv(out)[0], parsed["metadata"])


def _check_scan_probabilities(rows, metadata):
    # the limit form P_reduced is a probability only inside its regime
    bounded = ["P_numeric", "P_closed", "P_exact"]
    if not metadata.get("regime_notes"):
        bounded.append("P_reduced")
    for row in rows:
        for key in bounded:
            if key in row:
                assert 0.0 <= row[key] <= 1.0, (key, row)
        if "w_antisym" in row:
            assert row["w_antisym"] == row["P_numeric"], row


def _finite(token):
    value = float(token)
    assert math.isfinite(value), token
    return value


class TestExtremePumpWidths:
    """The CLI contract of the scans over extreme inputs."""

    @staticmethod
    def _check(argv, dz, out):
        # a delay sweep from 0 to dz, each end given as drawn
        ends = (dz, "0") if float(dz) < 0 else ("0", dz)
        _check_contract(argv + ["--dz-min", ends[0], "--dz-max", ends[1], "--steps", "3"], out)

    @hyp.settings(max_examples=100, derandomize=True, database=None)
    @hyp.given(beta=_EXTREME, center=_EXTREME, dl=_EXTREME, dz=_EXTREME)
    def test_shih_scan(self, tmp_path_factory, beta, center, dl, dz):
        argv = ["shih-scan", "--beta", beta, "--center", center, "--dl", dl]
        self._check(argv, dz, tmp_path_factory.getbasetemp() / "shih.csv")

    @hyp.settings(max_examples=100, derandomize=True, database=None)
    @hyp.given(beta=_EXTREME, center=_EXTREME, dz=_EXTREME)
    def test_dip_scan_with_a_gaussian_pump(self, tmp_path_factory, beta, center, dz):
        argv = ["dip-scan", "--pump", "gaussian", "--beta", beta, "--center", center]
        self._check(argv, dz, tmp_path_factory.getbasetemp() / "dip.csv")


# every model source, with "{}" for each drawn flag value
_SOURCES = {
    "flat pair": ["--model", "gaussian_pair", "--sigma", "{}", "--center", "{}", "--dz", "{}"],
    "pumped pair": ["--model", "gaussian_pair", "--pump", "gaussian", "--beta", "{}",
                    "--center", "{}", "--dz", "{}"],
    "shih": ["--model", "shih", "--beta", "{}", "--center", "{}", "--dl", "{}", "--dz", "{}"],
    "even delta pump": ["--model", "delta_pump", "--sigma", "{}", "--dl", "{}", "--dz", "{}"],
    "odd delta pump": ["--model", "delta_pump", "--parity", "odd", "--center", "{}",
                       "--dl", "{}", "--dz", "{}"],
    "bell": ["--model", "bell", "--omega-a", "{}", "--omega-b", "{}", "--dz", "{}"],
}
_REPORTS = {
    "transform": ["transform"],
    "frequency": ["wavepacket", "--domain", "frequency"],
    "time": ["wavepacket", "--domain", "time"],
}


class TestExtremeReports:
    """The CLI contract of ``transform`` and ``wavepacket`` in both domains,
    for every model source, over extreme inputs."""

    @hyp.settings(max_examples=150, derandomize=True, database=None)
    @hyp.given(report=st.sampled_from(sorted(_REPORTS)), source=st.sampled_from(sorted(_SOURCES)),
               values=st.lists(_EXTREME, min_size=4, max_size=4))
    def test_documented_exit_and_finite_output(self, tmp_path_factory, report, source, values):
        flags = [values.pop() if flag == "{}" else flag for flag in _SOURCES[source]]
        _check_contract(_REPORTS[report] + flags, tmp_path_factory.getbasetemp() / "report")

    # a spacing 2 * span / (n - 1) past the float range made a NaN grid, and
    # a Gaussian exponent past it an overflow warning before its exact 0
    @pytest.mark.parametrize("argv", [
        ["transform", "--model", "gaussian_pair", "--grid-span", "1e308"],
        ["wavepacket", "--domain", "time", "--model", "gaussian_pair", "--grid-span", "1e200",
         "--sigma", "1e15"],
    ], ids=["spacing-past-half-the-float-range", "gaussian-exponent-past-the-float-range"])
    def test_grid_past_the_float_range_answers(self, tmp_path, argv):
        _check_contract(argv, tmp_path / "report")
        assert (tmp_path / "report").exists()

    # the Rayleigh quotient of this exact product state rounds to 1 + 2.2e-16
    @pytest.mark.parametrize("report", sorted(_REPORTS))
    def test_rank1_fraction_of_a_product_state_is_at_most_1(self, tmp_path, report):
        _check_contract(_REPORTS[report] + ["--model", "gaussian_pair"], tmp_path / "report")
        assert (tmp_path / "report").exists()


# a source flag that sets no parameter of the chosen source, one per source,
# with the flag the error names; the spectrum file is refused before it is read
_UNUSED_FLAGS = [
    (["transform", "--model", "gaussian_pair", "--dl", "5", "--parity", "odd"], "dl"),
    (["transform", "--model", "shih", "--beta", "0.1", "--center", "20", "--pump", "gaussian"],
     "pump"),
    (["wavepacket", "--model", "delta_pump", "--dl", "1", "--omega-a", "3"], "omega-a"),
    (_BELL + ["--sigma", "5", "--center", "9"], "sigma"),
    (["transform", "--spectrum-file", "absent.csv", "--beta", "0.5"], "beta"),
    (["transform", "--spectrum-file", "absent.csv", "--grid-points", "513"], "grid-points"),
    (["wavepacket", "--spectrum-file", "absent.csv", "--grid-span", "2"], "grid-span"),
    (["dip-scan", "--beta", "0.5", "--dz-min", "-1", "--dz-max", "1", "--steps", "3"], "beta"),
]
_UNUSED_FLAG_IDS = ["pair-dl", "shih-pump", "delta-pump-omega-a", "bell-sigma",
                    "spectrum-file-beta", "spectrum-file-grid-points",
                    "spectrum-file-grid-span", "dip-beta-without-pump"]


# a carrier whose phase center*t overflows on the time axis
_HUGE_CARRIER_TIME_EXPORT = ["wavepacket", "--domain", "time", "--model", "gaussian_pair",
                             "--center", "1e308", "--grid-points", "33"]


class TestMalformedCommandLines:
    @pytest.mark.parametrize(
        "argv",
        [
            _BELL + ["--grid-span", "0"],
            _BELL + ["--grid-span", "-3"],
            _BELL + ["--grid-span", "inf"],
            _BELL + ["--grid-span", "nan"],
            _DIP + ["--dz-min=-inf", "--dz-max=inf"],
            _DIP + ["--dz-min=-1e308", "--dz-max=1e308"],
            _DIP + ["--dz-min", "-1e308", "--dz-max", "0"],
            _SHIH + ["--dz-min=-1", "--dz-max=inf"],
            ["transform", "--model", "gaussian_pair", "--dz", "inf"],
            ["transform", "--model", "delta_pump", "--dl", "nan"],
            ["wavepacket", "--model", "gaussian_pair", "--sigma", "1e-300"],
            ["transform", "--model", "shih", "--beta", "0.1", "--center", "90",
             "--sigma", "1e-300"],
            ["transform", "--model", "gaussian_pair", "--pump", "gaussian", "--beta", "1e-300"],
            ["transform", "--model", "shih", "--beta", "1e-200", "--center", "90"],
            _HUGE_CARRIER_TIME_EXPORT,
            _DIP + ["--dz-min", "1e-3", "--dz-max", "1", "--grid-span", "1e308",
                    "--grid-points", "3"],
            ["transform", "--model", "delta_pump", "--sigma", "1e-3", "--dl", "-1e308",
             "--dz", "1e308", "--grid-points", "33"],
            *(argv for argv, _ in _UNUSED_FLAGS),
        ],
        ids=["bell-span-0", "bell-span-negative", "bell-span-inf", "bell-span-nan",
             "dip-infinite-range", "dip-overflowing-range", "dip-overflowing-delay-phase",
             "shih-infinite-stop",
             "transform-dz-inf", "transform-dl-nan", "wavepacket-sigma-underflow",
             "shih-sigma-underflow", "pump-beta-underflow", "shih-beta-underflow",
             "time-export-carrier-overflow", "dip-overflowing-difference-phase",
             "transform-overflowing-delay-reach", *_UNUSED_FLAG_IDS],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        "argv,name",
        [
            (["transform", "--model", "gaussian_pair", "--dz=-inf"], "dz"),
            (_DIP + ["--pump", "gaussian", "--beta", "1e-3", "--dz-min", "-1e308",
                     "--dz-max", "0", "--grid-points", "33"], "dz"),
            (["transform", "--model", "delta_pump", "--dl", "nan"], "dl"),
            (["transform", "--model", "delta_pump", "--dl", "inf"], "dl"),
            (["wavepacket", "--model", "gaussian_pair", "--sigma", "1e-300"], "sigma"),
            (["transform", "--model", "gaussian_pair", "--pump", "gaussian", "--beta", "1e-300"],
             "pump_sigma"),
            (["transform", "--model", "shih", "--beta", "1e-200", "--center", "90"], "sigma_p"),
            (["wavepacket", "--model", "gaussian_pair", "--center", "1e300"], "center"),
            (_DIP + ["--dz-min", "1e-3", "--dz-max", "1", "--grid-span", "1e308",
                     "--grid-points", "3"], "dz"),
            (["transform", "--model", "delta_pump", "--sigma", "1e-3", "--dl", "-1e308",
              "--dz", "1e308", "--grid-points", "33"], "dl"),
            *_UNUSED_FLAGS,
            (_HUGE_CARRIER_TIME_EXPORT, "center"),
        ],
    )
    def test_error_names_the_parameter(self, tmp_path, capsys, argv, name):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        assert re.search(rf"\b{name}\b", capsys.readouterr().err)


# argparse's own usage errors, each with a word the one line must name
_USAGE_ERRORS = [
    (["dip-scan", "--dz-min", "-1", "--dz-max", "1", "--steps", "3"], "-o/--output"),
    (["transform", "--model", "nosuch"], "nosuch"),
    (["transform", "--model", "gaussian_pair", "--grid-points", "abc"], "abc"),
    (["transform"], "--spectrum-file"),
    (["transform", "--model", "gaussian_pair", "--sideband", "3"], "--sideband"),
    (["nosuch"], "nosuch"),
    ([], "command"),
]
_USAGE_ERROR_IDS = ["dip-scan-without-output", "unknown-model", "non-integer-grid-points",
                    "transform-without-source", "unknown-flag", "unknown-subcommand",
                    "no-subcommand"]

# the source flags each subcommand lists in -h
_SOURCE_FLAGS = {"--model", "--spectrum-file", "--sigma", "--beta", "--center", "--dl",
                 "--parity", "--omega-a", "--omega-b", "--c-light", "--pump", "--dz"}
_HELP_FLAGS = {
    "dip-scan": {"--sigma", "--beta", "--center", "--c-light", "--pump"},
    "shih-scan": {"--sigma", "--beta", "--center", "--dl", "--c-light"},
    "transform": _SOURCE_FLAGS,
    "wavepacket": _SOURCE_FLAGS,
    "validate": set(),
}

# minimal command lines, as (flag, value) pairs: without any one pair, a
# flag the command requires is missing
_MINIMAL = {
    "dip-scan": [("--dz-min", "-1"), ("--dz-max", "1"), ("--steps", "3"), ("-o", "{out}")],
    "shih-scan": [("--beta", "0.1"), ("--center", "20"), ("--dl", "2"), ("--dz-min", "-1"),
                  ("--dz-max", "1"), ("--steps", "3"), ("-o", "{out}")],
    "transform": [("--model", "shih"), ("--beta", "0.1"), ("--center", "20")],
    "wavepacket": [("--model", "bell"), ("--omega-a", "-1"), ("--omega-b", "1"),
                   ("-o", "{out}")],
}


def _options(command):
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.option_strings]


def _is_float(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


@st.composite
def _malformed_command_lines(draw):
    """A minimal command line with one malformed token: a value that is no
    number for a numeric flag, a value off a flag's choices, an unknown flag,
    or a required flag left out."""
    command = draw(st.sampled_from(sorted(_MINIMAL)))
    pairs = _MINIMAL[command]
    kind = draw(st.sampled_from(["number", "choice", "flag", "missing"]))
    if kind == "missing":
        pairs = pairs[:]
        del pairs[draw(st.integers(0, len(pairs) - 1))]
    argv = [command, *(token for pair in pairs for token in pair)]
    if kind == "number":
        option = draw(st.sampled_from([a for a in _options(command) if a.type in (int, float)]))
        return argv + [option.option_strings[-1],
                       draw(st.text(max_size=6).filter(lambda t: not _is_float(t)))]
    if kind == "choice":
        option = draw(st.sampled_from([a for a in _options(command) if a.choices]))
        return argv + [option.option_strings[-1],
                       draw(st.text(max_size=8).filter(lambda t: t not in option.choices))]
    if kind == "flag":
        return argv + ["--no-such-" + draw(st.text(max_size=6))]
    return argv


class TestUsageErrors:
    """argparse's own usage errors keep the one-line contract of every other
    error, and -h keeps its usage text."""

    @pytest.mark.parametrize("argv,name", _USAGE_ERRORS, ids=_USAGE_ERROR_IDS)
    def test_exits_2_with_one_error_line(self, capsys, argv, name):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and name in captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize("command", sorted(_HELP_FLAGS))
    def test_help_lists_the_source_flags(self, capsys, command):
        assert main([command, "-h"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: biphoton {command} ") and captured.err == ""
        listed = set(re.findall(r"--[a-z-]+", captured.out)) & _SOURCE_FLAGS
        assert listed == _HELP_FLAGS[command]

    def test_help_returns_0_in_process_and_exits_0(self, capsys):
        # an in-process caller gets 0 back; the console script still exits 0
        assert main(["-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: biphoton ")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bp.__file__))}
        proc = subprocess.run([sys.executable, "-m", "biphoton", "dip-scan", "-h"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: biphoton dip-scan ")
        assert proc.stderr == ""

    @pytest.mark.parametrize("argv,err", [
        (["transform", "--model", "shih", "--beta", "0.1"],
         "error: model shih requires --center\n"),
        (["transform", "--model", "shih", "--beta", "0.1", "--center", "0"],
         "error: center must be positive (it sets the carrier wavelength)\n"),
        (["wavepacket", "--model", "shih", "--center", "20", "-o", "unwritten.csv"],
         "error: model shih requires --beta\n"),
    ], ids=["center-missing", "center-zero", "beta-missing"])
    def test_two_path_source_names_its_missing_flag(self, capsys, argv, err):
        assert main(argv) == 2
        assert capsys.readouterr().err == err

    @hyp.settings(max_examples=200, derandomize=True, database=None)
    @hyp.given(argv=_malformed_command_lines())
    def test_malformed_tokens_keep_the_contract(self, tmp_path_factory, argv):
        out = str(tmp_path_factory.getbasetemp() / "malformed.out")
        code, stdout = _run_contract([out if token == "{out}" else token for token in argv])
        assert code == 2 and stdout == ""


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert _parser() is _parser()

    def test_one_parse_per_call(self, tmp_path, monkeypatch, capsys):
        # the source-flag defaults come from the flag table, not from a parse
        parser, parses = _parser(), []
        parse_args = parser.parse_args
        monkeypatch.setattr(parser, "parse_args", lambda *a: parses.append(a) or parse_args(*a))
        argv = ["transform", "--model", "gaussian_pair", "--grid-points", "33",
                "-o", str(tmp_path / "r.json")]
        main(argv)
        parses.clear()
        assert main(argv) == 0
        assert len(parses) == 1

    def test_commands_in_one_process_match_fresh_processes(self, tmp_path, capsys):
        runs = [
            ["dip-scan", "--dz-min=-2", "--dz-max", "2", "--steps", "9", "--pump", "gaussian",
             "--beta", "0.5", "--grid-points", "65"],
            ["transform", "--model", "shih", "--beta", "0.1", "--center", "90", "--dl", "2",
             "--dz", "0.5", "--grid-points", "65", "--theta", "0.3"],
            ["dip-scan", "--dz-min=-1", "--dz-max", "3", "--steps", "5", "--sigma", "2",
             "--grid-points", "33", "--format", "json"],
        ]
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bp.__file__))}
        for k, argv in enumerate(runs):
            here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
            assert main(argv + ["-o", str(here)]) == 0
            subprocess.run(
                [sys.executable, "-m", "biphoton", *argv, "-o", str(fresh)], env=env, check=True,
                capture_output=True,
            )
            here_text, fresh_text = here.read_text(), fresh.read_text()
            if "--format" in argv:
                # the JSON table's metadata carries stage timings
                here_json, fresh_json = json.loads(here_text), json.loads(fresh_text)
                assert (here_json["spec"], here_json["rows"]) == (
                    fresh_json["spec"], fresh_json["rows"]
                )
            else:
                assert here_text == fresh_text
        capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["dip-scan", "--dz-min", "0", "--dz-max", "1", "--steps", "2", "-o", "x"],
    ["shih-scan", "--beta", "0.1", "--center", "90", "--dl", "0", "--dz-min", "0", "--dz-max", "1",
     "--steps", "2", "-o", "x"],
    ["transform", "--model", "gaussian_pair"],
    ["wavepacket", "--model", "gaussian_pair", "-o", "x"],
], ids=["dip-scan", "shih-scan", "transform", "wavepacket"])
def test_grid_defaults_are_the_scan_spec_defaults(argv):
    args = _parser().parse_args(argv)
    assert (args.grid_points, args.grid_span) == (
        bp.ScanSpec.grid_points, bp.ScanSpec.grid_span_sigmas)


class TestValidateCommand:
    def test_results_carry_the_table_number_and_name(self):
        results = run_criteria([8, 3])
        assert [(r.number, r.name) for r in results] == [
            (8, ALL_CRITERIA[8][0]), (3, ALL_CRITERIA[3][0])]
        assert all(r.passed and r.elapsed_s > 0.0 for r in results)

    def test_fast_criteria_pass(self, capsys):
        code = main(["validate", "--only", "3,8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "criterion 3 [PASS]" in out
        assert "criterion 8 [PASS]" in out
        assert "2/2 criteria passed" in out

    def test_bad_selector_exits_2(self, capsys):
        code = main(["validate", "--only", "three"])
        assert code == 2

    # a list that starts with a negative number is the value of --only, not a
    # flag, and a long selector is echoed in part
    @pytest.mark.parametrize("only", ["-1,8", "-0,3", "9" * 5000, ""],
                             ids=["negative-list", "negative-zero-list", "5000-digits", "empty"])
    def test_rejected_selector_gives_one_short_line(self, capsys, only):
        assert main(["validate", "--only", only]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: --only ") and len(err) < 200

    # malformed and out-of-range selectors, and criterion 8, the one fast criterion
    @hyp.settings(max_examples=40, derandomize=True, database=None)
    @hyp.given(only=st.sampled_from([",", "0", "-1", "10", "1e3", "nan", "1_0", "8,8",
                                     "9" * 5000, "8"]), as_json=st.booleans())
    def test_selectors_keep_the_contract(self, only, as_json):
        code, stdout = _run_contract(["validate", "--only", only] + ["--json"] * as_json)
        if code == 2:
            return
        if as_json:
            json.loads(stdout, parse_constant=_reject, parse_float=_finite)
        else:
            assert re.fullmatch(r"(criterion 8 \[PASS\] .*\n)+(\d)/\2 criteria passed\n", stdout)

    def test_json_report(self, capsys):
        # criterion 7 fails by design, so the exit code stays 3
        assert main(["validate", "--only", "1,7", "--json"]) == 3
        payload = json.loads(capsys.readouterr().out)
        assert (payload["passed"], payload["total"]) == (1, 2)
        first, seventh = payload["criteria"]
        keys = {"number", "name", "passed", "detail", "elapsed_s", "measurements"}
        assert set(first) == set(seventh) == keys
        assert (first["number"], first["passed"]) == (1, True)
        assert (seventh["number"], seventh["passed"]) == (7, False)
        assert first["measurements"]["max_abs_dev"] < 1e-6
        assert seventh["measurements"]["reduced_gap"] > 1e-3
        assert first["elapsed_s"] > 0.0 and "FAIL" in seventh["detail"]
