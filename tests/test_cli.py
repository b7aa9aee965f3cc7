import json
import math

import numpy as np
import pytest

import biphoton as bp
from biphoton.cli import main


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

    def test_single_step_exits_2(self, tmp_path, capsys):
        code = main(["dip-scan", "--dz-min", "-4", "--dz-max", "4", "--steps", "1",
                     "-o", str(tmp_path / "x.csv")])
        assert code == 2
        assert "steps must be >= 2" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["dip-scan", "--dz-min", "-4", "--dz-max", "4", "--steps", "5",
                  "--sideband", "3", "-o", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2

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

    def test_model_and_file_are_exclusive(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["transform", "--model", "bell", "--spectrum-file", "x.csv"])
        assert excinfo.value.code == 2

    def test_delayed_gaussian_pair_report(self, capsys):
        code = main(["transform", "--model", "gaussian_pair", "--dz", "1.0",
                     "--grid-points", "129"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        expected = bp.hom_dip_closed(1.0, 1.0)
        assert abs(report["p_coinc"] - expected) < 1e-9


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

    def test_sine_with_zero_dl_exits_3(self, tmp_path, capsys):
        code = main(["wavepacket", "--model", "delta_pump", "--parity", "odd",
                     "--dl", "0", "--grid-points", "65", "-o", str(tmp_path / "x.csv")])
        assert code == 3
        assert "degenerate" in capsys.readouterr().err


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
            _SHIH + ["--dz-min=-1", "--dz-max=inf"],
        ],
        ids=["bell-span-0", "bell-span-negative", "bell-span-inf", "bell-span-nan",
             "dip-infinite-range", "dip-overflowing-range", "shih-infinite-stop"],
    )
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv):
        assert main(argv + ["-o", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")


class TestValidateCommand:
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
