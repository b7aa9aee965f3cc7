"""Transform reports of model sources read off their O(n) factors, against the
built state reduced as a matrix."""

import json
import tracemalloc

import numpy as np
import pytest

import biphoton as bp
from biphoton.beamsplitter import _weights, exchange_report
from biphoton.cli import main
from biphoton.spectrum import (
    _factored_sums,
    _FactoredState,
    _leading_singular_pair,
    _matrix_sums,
    exchange_weights,
)
from reference import delayed_state

# every model source: (model, row, grid span in sigma)
SOURCES = {
    "pair flat": ("gaussian_pair", {"sigma": 1.3, "center": 0.4}, 6.0),
    "pair pumped": ("gaussian_pair", {"pump_sigma": 0.7}, 6.0),
    "shih": ("shih", {"center": 78.61835615608457, "sigma_p": 0.1, "delta_l": 5.0}, 4.5),
    "delta pump even": ("delta_pump", {"dl": 1.5}, 6.0),
    "delta pump odd": ("delta_pump", {"dl": 1.5, "parity": "odd", "center": -1.0}, 6.0),
    "bell": ("bell", {"omega_a": -2.3, "omega_b": 1.7}, 6.0),
}
SPLITTERS = [
    bp.BeamSplitterParams.balanced(),
    bp.BeamSplitterParams(theta=0.62, phi_tau=0.3, phi_rho=-1.1),
]


def state(name: str, n: int, dz: float = 0.0) -> _FactoredState:
    model, row, span = SOURCES[name]
    s = delayed_state(model, {**row, "dz": dz}, n, span)
    assert isinstance(s, _FactoredState)
    return s


@pytest.mark.parametrize("dz", [0.0, 0.9])
@pytest.mark.parametrize("n", [3, 33, 257, 1025])
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_factored_report_matches_the_built_state(name, n, dz):
    f = state(name, n, dz)
    s = f.spectrum()
    # the exchange weights and every report scalar
    dense = exchange_weights(s.amplitudes)
    assert np.max(np.abs(np.subtract(_weights(f), dense))) <= 1e-15
    for p in SPLITTERS:
        factored, matrix = exchange_report(f, p), exchange_report(s, p)
        for key in factored:
            assert abs(factored[key] - matrix[key]) <= 1e-15, key
    # the rank-1 fraction, and a singular triple of the built state
    fraction, sigma, u, v = _leading_singular_pair(f)
    assert abs(fraction - _leading_singular_pair(s.amplitudes)[0]) <= 1e-15
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-15 and abs(np.linalg.norm(v) - 1.0) <= 1e-15
    assert np.max(np.abs(s.amplitudes @ v - sigma * u)) <= 1e-12
    # the sums of the scan reduction
    new, old = _factored_sums(f), _matrix_sums(s)
    for label, a, b in zip(("r", "v", "T", "S"), new, old):
        assert a.shape == b.shape, label
        assert np.max(np.abs(a - b), initial=0.0) <= 1e-15, label


@pytest.mark.parametrize("n", [3, 33, 257, 1025])
def test_one_hot_sources_keep_exact_values(n):
    balanced = bp.BeamSplitterParams.balanced()
    # the even delta pump at dl = 0 is exchange-symmetric bit for bit
    even = exchange_report(delayed_state("delta_pump", {"dl": 0.0}, n, 6.0), balanced)
    assert even["w_antisym"] == 0.0 and even["trapping_fidelity"] == 0.0
    assert even["exchange_overlap"] == 1.0
    # the odd delta pump and the Bell state are antisymmetric bit for bit
    for name in ("delta pump odd", "bell"):
        report = exchange_report(state(name, n), balanced)
        assert report["w_antisym"] == report["trapping_fidelity"] == 1.0, name
        assert report["exchange_overlap"] == -1.0, name
        assert report["p_11"] == report["p_22"] == 0.0, name


@pytest.mark.parametrize("n", [9, 17, 33, 257, 1025])
def test_one_hot_scans_keep_exact_zeros(n):
    # the S_m of a one-hot pump is summed off its one anti-diagonal as r is,
    # so the even delta pump's dl = 0 row and its dz = 0 row stay exactly 0
    # (an FFT left 5.6e-17 at n = 9, 17 and 33 with sigma = 0.7)
    for swept, fixed in (("dl", {"parity": "even", "sigma": 0.7}), ("dz", {"dl": 1.5})):
        spec = bp.ScanSpec(model="delta_pump", swept=swept, start=-1.0, stop=1.0, n_steps=3,
                           fixed=fixed, grid_points=n)
        assert bp.run_scan(spec).rows[1].p_numeric == 0.0, swept


def test_readme_bell_report_is_exactly_trapped(capsys):
    assert main(["transform", "--model", "bell", "--omega-a", "-2", "--omega-b", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["p_coinc"] == report["trapping_fidelity"] == 1.0
    assert report["rank1_fraction"] == 0.5


def _transform_peak(argv: list[str], n: int) -> float:
    # tracemalloc peak of one transform report, after a warm-up, in n x n matrices
    main(argv)
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * n * n)


@pytest.mark.parametrize("flags", [
    ["--model", "gaussian_pair", "--dz", "0.7"],
    ["--model", "gaussian_pair", "--pump", "gaussian", "--beta", "0.8", "--dz", "0.7"],
    ["--model", "shih", "--beta", "0.01", "--center", "78.61835615608457", "--dl", "20",
     "--grid-span", "4.5", "--dz", "0.3"],
    ["--model", "delta_pump", "--dl", "1.3"],
    ["--model", "delta_pump", "--parity", "odd", "--dl", "2.5", "--dz", "0.5"],
    ["--model", "bell", "--omega-a", "-2", "--omega-b", "3"],
], ids=["pair flat", "pair pumped", "shih", "delta pump even", "delta pump odd", "bell"])
def test_transform_of_a_model_source_builds_no_state(tmp_path, flags):
    # the built state alone is one matrix; the report reads the factors
    n = 1025
    argv = ["transform", *flags, "--grid-points", str(n), "-o", str(tmp_path / "r.json")]
    assert _transform_peak(argv, n) < 0.1
