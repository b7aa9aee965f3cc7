import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import hypothesis as hyp
import hypothesis.strategies as st
import numpy as np
import pytest

import biphoton as bp
from biphoton import fileio
from conftest import make_random_spectrum


class TestSpectrumFileRoundTrip:
    def test_random_spectrum_round_trips(self, rng, tmp_path):
        s = make_random_spectrum(rng, 9)
        path = str(tmp_path / "s.csv")
        bp.save_spectrum(s, path)
        loaded = bp.load_spectrum(path)
        assert loaded.grid.n_points == 9
        assert abs(loaded.grid.center - s.grid.center) < 1e-15
        assert abs(loaded.grid.half_span - s.grid.half_span) < 1e-12
        assert np.max(np.abs(loaded.amplitudes - s.amplitudes)) < 1e-15

    def test_file_layout(self, rng, tmp_path):
        s = make_random_spectrum(rng, 3)
        path = tmp_path / "s.csv"
        bp.save_spectrum(s, str(path))
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0].startswith("omega,")
        assert len(lines) == 5 and lines[4] == ""  # header + 3 rows + final LF
        assert "\r" not in text
        assert not any(line.endswith(",") for line in lines[:4])

    def test_physics_survives_round_trip(self, tmp_path, balanced):
        s = bp.bell_antisymmetric_spectrum(-2.0, 2.0, bp.make_grid(0.0, 8.0, 17))
        path = str(tmp_path / "bell.csv")
        bp.save_spectrum(s, path)
        assert abs(bp.coincidence_probability(bp.load_spectrum(path), balanced) - 1.0) < 1e-12


def _write(tmp_path, text):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    return str(path)


class TestSpectrumFileErrors:
    def test_bad_complex_cell_reports_location(self, tmp_path):
        path = _write(
            tmp_path,
            "omega,1,2,3\n"
            "1,0+0j,1+0j,0+0j\n"
            "2,0+0j,banana,0+0j\n"
            "3,0+0j,0+0j,0+0j\n",
        )
        with pytest.raises(bp.SpectrumFileError, match=r"line 3, column 3"):
            bp.load_spectrum(path)

    def test_locations_count_blank_lines(self, tmp_path):
        # errors name the line of the file, blank lines included
        cases = [
            ("omega,-1,0,1\n\n-1,0j,1j,0j\n0,0j,0j,0j\n1,0j,0j,BAD\n", "line 5, column 4"),
            ("\nomega,-1,0,1,2\n", "line 2, column 2"),
            ("omega,-1,0,1\n\n-1,1j,0j,0j\n\n0,0j,0j,0j\n", "line 6, column 1"),
            ("omega,-1,0,1\n-1,1j,0j,0j\n0,0j,0j,0j\n1,0j,0j,0j\n\n1,0j,0j,0j\n", "line 6"),
        ]
        for text, location in cases:
            with pytest.raises(bp.SpectrumFileError, match=location):
                bp.load_spectrum(_write(tmp_path, text))

    def test_even_point_count_rejected(self, tmp_path):
        path = _write(
            tmp_path,
            "omega,1,2,3,4\n1,0j,0j,0j,1j\n2,0j,0j,0j,0j\n3,0j,0j,0j,0j\n4,0j,0j,0j,0j\n",
        )
        with pytest.raises(bp.SpectrumFileError, match="odd point count"):
            bp.load_spectrum(path)

    def test_non_uniform_axis_rejected(self, tmp_path):
        path = _write(
            tmp_path, "omega,1,2,4\n1,1j,0j,0j\n2,0j,0j,0j\n4,0j,0j,0j\n"
        )
        with pytest.raises(bp.SpectrumFileError, match="uniform"):
            bp.load_spectrum(path)

    def test_row_label_mismatch_rejected(self, tmp_path):
        cases = [
            ("omega,1,2,3\n1,1j,0j,0j\n2.5,0j,0j,0j\n3,0j,0j,0j\n", 3),
            # permuted labels on an axis narrower than 1e-9: the tolerance
            # follows the spacing, not the magnitude of the frequencies
            ("omega,-1e-12,0,1e-12\n1e-12,1j,0j,0j\n-1e-12,0j,1j,0j\n0,0j,0j,0j\n", 2),
        ]
        for text, line in cases:
            path = _write(tmp_path, text)
            with pytest.raises(
                bp.SpectrumFileError, match=rf"row label.*line {line}, column 1"
            ):
                bp.load_spectrum(path)

    def test_short_row_rejected(self, tmp_path):
        path = _write(tmp_path, "omega,1,2,3\n1,1j,0j,0j\n2,0j,0j\n3,0j,0j,0j\n")
        with pytest.raises(bp.SpectrumFileError, match="cells"):
            bp.load_spectrum(path)

    def test_missing_rows_rejected(self, tmp_path):
        path = _write(tmp_path, "omega,1,2,3\n1,1j,0j,0j\n")
        with pytest.raises(bp.SpectrumFileError, match="data rows"):
            bp.load_spectrum(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(bp.SpectrumFileError, match="empty"):
            bp.load_spectrum(_write(tmp_path, ""))

    @pytest.mark.parametrize("bad", ["nan+0j", "1-infj", "1e999+0j", "(1+2j)x", ""])
    def test_non_finite_or_bad_cell_named_before_a_later_bad_row(self, tmp_path, bad):
        # the row-wide parse falls back to the per-cell one, which names the
        # first offending cell in file order
        path = _write(
            tmp_path, f"omega,1,2,3\n1,1j,0j,0j\n2,0j,0j,{bad}\n2.5,0j,0j,0j\n"
        )
        with pytest.raises(bp.SpectrumFileError, match=r"line 3, column 4"):
            bp.load_spectrum(path)

    def test_all_zero_content_is_degenerate(self, tmp_path):
        path = _write(
            tmp_path, "omega,1,2,3\n1,0j,0j,0j\n2,0j,0j,0j\n3,0j,0j,0j\n"
        )
        with pytest.raises(bp.DegenerateSpectrumError):
            bp.load_spectrum(path)


class TestScanSerialization:
    COLUMNS = [
        ("param", "param"),
        ("P_numeric", "p_numeric"),
        ("P_closed", "p_closed"),
        ("w_antisym", "w_antisym"),
    ]

    @pytest.fixture
    def result(self):
        spec = bp.ScanSpec(
            model="gaussian_pair",
            swept="dz",
            start=-2.0,
            stop=2.0,
            n_steps=9,
            fixed={"sigma": 1.0, "center": 0.0},
            grid_points=65,
        )
        return bp.run_scan(spec)

    def test_csv_and_json_values_are_identical(self, result, tmp_path):
        csv_path = tmp_path / "scan.csv"
        json_path = tmp_path / "scan.json"
        fileio.write_scan_csv(result, self.COLUMNS, str(csv_path))
        fileio.write_scan_json(result, self.COLUMNS, str(json_path))

        csv_lines = csv_path.read_text().strip().split("\n")
        headers = csv_lines[0].split(",")
        csv_rows = [
            {h: float(tok) for h, tok in zip(headers, line.split(","))}
            for line in csv_lines[1:]
        ]
        json_rows = json.loads(json_path.read_text())["rows"]
        assert len(csv_rows) == len(json_rows) == 9
        for crow, jrow in zip(csv_rows, json_rows):
            for header in headers:
                assert crow[header] == jrow[header]  # exact, 0 ulp

    def test_csv_shape(self, result, tmp_path):
        path = tmp_path / "scan.csv"
        fileio.write_scan_csv(result, self.COLUMNS, str(path))
        text = path.read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "param,P_numeric,P_closed,w_antisym"
        assert len(lines) == 10
        assert "\r" not in text

    def test_csv_bytes_match_per_entry_formatting(self, result, tmp_path):
        # signed zeros, subnormals, wide exponents and numpy floats
        values = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1.0 / 3.0, np.float64(0.1), 12345.678]
        rows = tuple(
            bp.ScanRow(values[k], values[k - 1], values[k - 2], None, values[k - 3])
            for k in range(len(values))
        )
        path = tmp_path / "scan.csv"
        fileio.write_scan_csv(dataclasses.replace(result, rows=rows), self.COLUMNS, str(path))
        expected = "param,P_numeric,P_closed,w_antisym\n" + "".join(
            ",".join(fileio.format_float(getattr(row, attr)) for _, attr in self.COLUMNS) + "\n"
            for row in rows
        )
        assert path.read_bytes() == expected.encode()

    def test_json_carries_spec_and_metadata(self, result, tmp_path):
        path = tmp_path / "scan.json"
        fileio.write_scan_json(result, self.COLUMNS, str(path))
        payload = json.loads(path.read_text())
        # the spec block's keys, in order, are the ones the README lists
        assert list(payload["spec"]) == ["model", "swept", "start", "stop", "n_steps", "fixed",
                                         "grid_points", "grid_span_sigmas"]
        assert payload["spec"]["model"] == "gaussian_pair"
        assert payload["spec"]["n_steps"] == 9
        assert payload["metadata"]["grid"]["n_points"] == 65

    def test_missing_column_rejected(self, result):
        with pytest.raises(ValueError, match="no values"):
            fileio.scan_rows_table(result, [("P_reduced", "p_reduced")])


@pytest.mark.parametrize("n", [33, 129])
def test_save_spectrum_matches_per_cell_formatting(rng, tmp_path, n):
    # every cell is written as the f-string below and parses back to the same bits
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= 10.0 ** rng.integers(-300, 1, size=(n, n))
    raw[0, :4] = [0.0, -0.0, 5e-324 - 0.0j, complex(-0.0, 2.5e-310)]
    raw[-1, -1] = 1.0
    s = bp.BiphotonSpectrum.from_array(bp.make_grid(0.25, 3.0, n), raw)
    path = tmp_path / "s.csv"
    bp.save_spectrum(s, str(path))
    w = s.grid.frequencies()
    expected = "omega," + ",".join(f"{x:.17g}" for x in w) + "\n" + "".join(
        f"{w[i]:.17g}," + ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in s.amplitudes[i])
        + "\n"
        for i in range(n)
    )
    assert path.read_bytes() == expected.encode()
    lines = path.read_text().splitlines()[1:]
    parsed = np.array([[complex(tok) for tok in line.split(",")[1:]] for line in lines])
    assert np.array_equal(parsed.view(np.float64), s.amplitudes.view(np.float64))
    assert np.array_equal(np.signbit(parsed.view(np.float64)), np.signbit(s.amplitudes.view(np.float64)))


def test_row_parse_equals_per_cell_parse(rng, tmp_path):
    # bit for bit, including signed zeros, subnormals and wide exponents
    n = 33
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    raw *= 10.0 ** rng.integers(-150, 150, size=(n, n))
    raw[0, :4] = [0.0, -0.0, 5e-324 - 0.0j, complex(-0.0, 2.5e-310)]
    s = bp.BiphotonSpectrum.from_array(bp.make_grid(0.0, 1.0, n), raw)
    path = tmp_path / "s.csv"
    bp.save_spectrum(s, str(path))
    lines = path.read_text().splitlines()[1:]
    per_cell = np.array([[complex(tok) for tok in line.split(",")[1:]] for line in lines])
    loaded = bp.load_spectrum(str(path)).amplitudes
    expected = bp.BiphotonSpectrum.from_array(s.grid, per_cell).amplitudes
    assert np.array_equal(loaded.view(np.float64), expected.view(np.float64))
    assert np.array_equal(np.signbit(loaded.view(np.float64)), np.signbit(expected.view(np.float64)))


def _per_entry_text(label, axis, matrix):
    """The export through one ``format_float`` per entry, joined by commas."""
    fmt = fileio.format_float
    return label + "," + ",".join(fmt(x) for x in axis) + "\n" + "".join(
        fmt(x) + "," + ",".join(fmt(v) for v in row) + "\n" for x, row in zip(axis, matrix)
    )


def _magnitude_matrix(n):
    matrix = np.abs(np.random.default_rng(7).standard_normal((n, n))) * 1e3
    matrix[0, :4] = [0.0, -0.0, 5e-324, 1e308]
    matrix[1, :3] = [1.0 + 2.0**-52, np.nextafter(1.0, 0.0), 2.5e-310]
    axis = np.linspace(-6.0, 6.0, n)
    axis[3] = -0.0
    return axis, matrix


class TestMagnitudeMatrix:
    def test_layout(self, tmp_path):
        axis = np.array([0.0, 1.0, 2.0])
        matrix = np.arange(9.0).reshape(3, 3)
        path = tmp_path / "m.csv"
        fileio.save_magnitude_matrix("time", axis, matrix, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "time,0,1,2"
        assert lines[2].split(",")[0] == "1"
        assert float(lines[2].split(",")[2]) == 4.0

    @pytest.mark.parametrize("scale", [1.0, 1e-9], ids=["fixed", "exponent"])
    @pytest.mark.parametrize("n", [65, 257, 513])
    def test_matches_per_entry_formatting(self, tmp_path, n, scale):
        axis, matrix = _magnitude_matrix(n)
        matrix = matrix * scale
        path = tmp_path / "m.csv"
        fileio.save_magnitude_matrix("omega", axis, matrix, str(path))
        assert path.read_bytes() == _per_entry_text("omega", axis, matrix).encode()
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_writes_in_this_process(self, tmp_path, monkeypatch):
        # a large export starts no process and leaves no file beside its output
        def no_fork():
            raise AssertionError("the writer forked")

        monkeypatch.setattr(os, "fork", no_fork)
        axis, matrix = _magnitude_matrix(513)
        path = tmp_path / "m.csv"
        fileio.save_magnitude_matrix("time", axis, matrix, str(path))
        assert path.read_bytes() == _per_entry_text("time", axis, matrix).encode()
        assert os.listdir(tmp_path) == ["m.csv"]

    def test_parent_peak_memory_is_a_small_share_of_the_matrix(self, tmp_path):
        axis, matrix = _magnitude_matrix(513)
        path = str(tmp_path / "m.csv")
        fileio.save_magnitude_matrix("time", axis, matrix, path)  # warm the caches
        tracemalloc.start()
        try:
            fileio.save_magnitude_matrix("time", axis, matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.05 * matrix.nbytes  # measured 0.026

    def test_float32_matrix_is_written_as_its_doubles(self, tmp_path):
        axis = np.array([0.0, 1.0])
        matrix = (np.array([[1.0, 3.0], [0.0, 7.0]]) * 1e-9).astype(np.float32)
        path = tmp_path / "m.csv"
        fileio.save_magnitude_matrix("time", axis, matrix, str(path))
        assert path.read_bytes() == _per_entry_text("time", axis, matrix.tolist()).encode()

    def test_exponent_form_peak_memory_is_a_small_share_of_the_matrix(self, tmp_path):
        axis, matrix = _magnitude_matrix(513)
        matrix = matrix * 1e-9  # every row but the first is laid out from its digits
        path = str(tmp_path / "m.csv")
        fileio.save_magnitude_matrix("time", axis, matrix, path)  # warm the caches
        tracemalloc.start()
        try:
            fileio.save_magnitude_matrix("time", axis, matrix, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.08 * matrix.nbytes


class TestFloatFormatting:
    def test_seventeen_digit_round_trip(self, rng):
        for _ in range(200):
            x = float(rng.standard_normal() * 10.0 ** rng.integers(-300, 300))
            assert float(fileio.format_float(x)) == x


def _assert_laid_out_as_format_float(values):
    """``_exponent_row`` of ``values``, padded with as many exponent-form
    cells so that the row is laid out from its digits, is the per-cell text."""
    row = np.array([*values, *[1.2345e-9] * len(values)])
    assert fileio._exponent_row(row) == "".join("," + fileio.format_float(v) for v in row)


def _edge_values():
    values = [1e-270, 1e290, 1e16, 1e17, 1.0 + 2.0**-52, 1.0 - 2.0**-52, 5e-324, 2.5e-310]
    values += [np.nextafter(x, t) for x in (1e-270, 1e290, 1e16, 1e17) for t in (0.0, np.inf)]
    for k in range(-300, 301):
        x = float(f"1e{k}")
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
    values += [2.0**k for k in range(-1074, 1024)]
    # ties: 17- and 18-digit decimals that end in 5, and dyadic exact ties
    rng = np.random.default_rng(11)
    for k in rng.integers(-280, 280, size=300).tolist():
        values.append(float(f"{rng.integers(10**15, 10**16)}5e{k}"))
        values.append(float(f"{rng.integers(10**16, 10**17)}5e{k}"))
    values += [m * 2.0**-j for m in (1, 3, 12345, 2**53 - 1) for j in range(1, 80)]
    return values


class TestExponentRow:
    def test_edge_values_match_format_float(self):
        values = _edge_values()
        _assert_laid_out_as_format_float(values)
        _assert_laid_out_as_format_float([-v for v in values])

    @hyp.given(st.lists(st.floats() | st.floats(1e-270, 1e-4) | st.floats(-1e290, -1e17),
                        min_size=1, max_size=40))
    def test_every_float_matches_format_float(self, values):
        _assert_laid_out_as_format_float(values)

    def test_powers_of_ten_that_round_up_carry(self):
        # 10**k rounds to a double below 10**k whose 17 digits round up to
        # 10**17 at exponent k - 1: certified, and carried to 1e16 at k
        ks = [-243, -176, -175, -174, -79, -78, -73, -70, -14, 98, 129, 153, 220]
        x = np.array([float(f"1e{k}") for k in ks])
        d, e, ok = fileio._digits17(x)
        assert ok.all() and (d == 10**16).all() and e.tolist() == ks

    def test_no_double_below_1e_4_rounds_up_to_it(self):
        # so the cells chosen by magnitude stay in exponent form: 1e-4 rounds
        # to a double above it, and the next double down is more than half a
        # 17th digit (5e-22) below it
        num, den = (1e-4).as_integer_ratio()
        assert num * 10**4 > den
        num, den = np.nextafter(1e-4, 0.0).as_integer_ratio()
        assert den * 10**18 - num * 10**22 > 5 * den

    def test_rows_of_mostly_fixed_cells_are_left_to_percent(self):
        assert fileio._exponent_row(np.array([0.0, 0.0, 1e-9])) is None
        assert fileio._exponent_row(np.array([0.5, 0.25, 1e-9])) is None
        assert fileio._exponent_row(np.array([0.5, 1e-9])) is not None


def test_import_builds_no_table_and_imports_no_extra_module():
    # the digit tables are built from Python integers on first use, never at import
    code = (
        "import sys, biphoton.cli, biphoton.fileio as f; "
        "print(sorted({'fractions', 'decimal', 'numpy.random'} & set(sys.modules)), "
        "f._pow10.cache_info().currsize, f._ascii4.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(bp.__file__))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] 0 0\n"
