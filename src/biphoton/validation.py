"""Built-in verification suite.

Each criterion reruns a physics identity end to end through the public API
and reports measured deviations against fixed tolerances.  The CLI
``validate`` subcommand prints one line per criterion; the test suite
asserts on the same results.

Everything runs in natural units (``sigma = c = 1``); the checked
quantities depend only on dimensionless groups, so the outcome is
convention independent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .beamsplitter import (
    BeamSplitterParams,
    bs_inverse,
    bs_matrix,
    coincidence_probability,
    transform,
    transform_decomposition,
    trapping_fidelity,
)
from .models import (
    GaussianPairModel,
    ShihModel,
    bell_antisymmetric_spectrum,
    gaussian_pair_spectrum,
    shih_norm_factor,
)
from .scans import ScanSpec, _delayed_state, compare_methods, model_params, run_scan
from .spectrum import BiphotonSpectrum, apply_path_delays, make_grid

_BALANCED = BeamSplitterParams.balanced()

# Fine enough to resolve the narrowest pump ridge in the criterion-6
# lattice (beta = 0.01 needs spacing well under the aliasing threshold
# ~1.5 * sigma_p); span 4.5 sigma keeps Gaussian truncation below 1e-8.
_SHIH_GRIDS = {0.01: (1025, 4.5), 0.1: (257, 4.5)}

# Odd multiples k = 4*delta_l/lambda chosen so the carrier sits near 100 sigma.
_SHIH_PARITY_K = {1.0: 63, 5.0: 319, 20.0: 1273}


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float
    measurements: dict[str, float] = field(default_factory=dict)

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number} [{status}] {self.name}: {self.detail}"


_Outcome = tuple[bool, str, dict[str, float]]


def _dip_scan_checks(pump_sigma: float | None) -> dict[str, float]:
    spec = ScanSpec(model="gaussian_pair", swept="dz", start=-4.0, stop=4.0, n_steps=81,
                    fixed={"pump_sigma": pump_sigma})
    t0 = time.perf_counter()
    result = run_scan(spec)
    elapsed = time.perf_counter() - t0
    cmp = compare_methods(result)
    p_zero = result.rows[40].p_numeric
    edge_dev = max(abs(result.rows[0].p_numeric - 0.5), abs(result.rows[-1].p_numeric - 0.5))
    return {
        "max_abs_dev": cmp.max_abs_dev,
        "p_at_zero": p_zero,
        "edge_dev_from_half": edge_dev,
        "elapsed_s": elapsed,
    }


def _dip_passed(m: dict[str, float]) -> bool:
    return (m["max_abs_dev"] < 1e-6 and m["p_at_zero"] < 1e-10
            and m["edge_dev_from_half"] < 1e-3 and m["elapsed_s"] < 10.0)


def criterion_1() -> _Outcome:
    """Delay scan of the Gaussian pair matches the closed-form dip."""
    m = _dip_scan_checks(pump_sigma=None)
    detail = (
        f"max|P_num-P_closed|={m['max_abs_dev']:.3e} (<1e-6), "
        f"P(0)={m['p_at_zero']:.3e} (<1e-10), "
        f"|P(+-4)-0.5|={m['edge_dev_from_half']:.3e} (<1e-3), "
        f"runtime={m['elapsed_s']:.2f}s (<10s)"
    )
    return _dip_passed(m), detail, m


def criterion_2() -> _Outcome:
    """The dip curve is independent of the pump envelope."""
    worst: dict[str, float] = {"max_abs_dev": 0.0, "p_at_zero": 0.0,
                               "edge_dev_from_half": 0.0, "elapsed_s": 0.0}
    for pump_sigma in (None, 0.05, 0.5, 2.0):
        m = _dip_scan_checks(pump_sigma)
        for key in worst:
            worst[key] = max(worst[key], m[key])
    detail = (
        f"pump envelopes flat and gaussian beta in {{0.05, 0.5, 2}}: worst "
        f"max|P_num-P_closed|={worst['max_abs_dev']:.3e} (<1e-6), "
        f"worst P(0)={worst['p_at_zero']:.3e} (<1e-10), "
        f"worst |P(+-4)-0.5|={worst['edge_dev_from_half']:.3e} (<1e-3)"
    )
    return _dip_passed(worst), detail, worst


def criterion_3() -> _Outcome:
    """Antisymmetric states coincide with certainty and are trapped."""
    bell = bell_antisymmetric_spectrum(-2.0, 2.0, make_grid(0.0, 8.0, 17))
    params = model_params("delta_pump", {"dl": 1.0, "parity": "odd"})
    sine = _delayed_state("delta_pump", params, 257, 6.0).spectrum()
    m = {
        "bell_p_dev": abs(coincidence_probability(bell, _BALANCED) - 1.0),
        "bell_fidelity_dev": abs(trapping_fidelity(bell) - 1.0),
        "sine_p_dev": abs(coincidence_probability(sine, _BALANCED) - 1.0),
        "sine_fidelity_dev": abs(trapping_fidelity(sine) - 1.0),
    }
    detail = (
        f"|P-1|: bell={m['bell_p_dev']:.2e}, antidiagonal-sine={m['sine_p_dev']:.2e}; "
        f"|fidelity-1|: bell={m['bell_fidelity_dev']:.2e}, "
        f"antidiagonal-sine={m['sine_fidelity_dev']:.2e} (all <1e-12)"
    )
    return all(v < 1e-12 for v in m.values()), detail, m


def _random_spectrum(rng: np.random.Generator, n: int) -> BiphotonSpectrum:
    grid = make_grid(0.0, 1.0, n)
    raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return BiphotonSpectrum.from_array(grid, raw)


def criterion_4() -> _Outcome:
    """Balanced coincidence equals the antisymmetric weight.

    The weight comes from the elementwise ``(c - c.T) / 2`` sum, a route
    independent of the channel-amplitude computation.
    """
    rng = np.random.default_rng(20260808)
    count = 0
    worst = 0.0
    for n in (3, 5, 9, 17):
        for _ in range(26):
            s = _random_spectrum(rng, n)
            p = coincidence_probability(s, _BALANCED)
            c = s.amplitudes
            w_oracle = 0.25 * float(np.sum(np.abs(c - c.T) ** 2))
            worst = max(worst, abs(p - w_oracle))
            count += 1
    detail = f"{count} random spectra on n in {{3,5,9,17}}: max|P - w_antisym|={worst:.2e} (<1e-12)"
    return worst < 1e-12, detail, {"max_dev": worst, "count": count}


def criterion_5() -> _Outcome:
    """Probability conservation, mode-matrix unitarity, and inverse round trip."""
    rng = np.random.default_rng(31415926)
    eye = np.eye(2)
    worst_prob = worst_unitary = worst_round = 0.0
    sizes = (3, 5, 9)
    for i in range(1000):
        s = _random_spectrum(rng, sizes[i % len(sizes)])
        p = BeamSplitterParams(*(rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=3)))
        d = transform(s, p)
        worst_prob = max(worst_prob, abs(d.p_11 + d.p_22 + d.p_coinc - 1.0))
        mat = bs_matrix(p)
        worst_unitary = max(worst_unitary, float(np.max(np.abs(mat @ mat.conj().T - eye))))
        back = transform_decomposition(d, bs_inverse(p))
        # same-port channels are physical only through their symmetric part
        worst_round = max(
            worst_round,
            float(np.max(np.abs(back.amp_12 - s.amplitudes))),
            float(np.max(np.abs(back.amp_11 + back.amp_11.T))) / 2.0,
            float(np.max(np.abs(back.amp_22 + back.amp_22.T))) / 2.0,
        )
    m = {"prob_sum_dev": worst_prob, "unitarity_dev": worst_unitary, "round_trip_dev": worst_round}
    detail = (
        f"1000 random (spectrum, angles): max|p11+p22+pc-1|={worst_prob:.2e} (<1e-10), "
        f"max|M M^dag - I|={worst_unitary:.2e} (<1e-14), "
        f"round-trip max dev={worst_round:.2e} (<1e-12)"
    )
    return worst_prob < 1e-10 and worst_unitary < 1e-14 and worst_round < 1e-12, detail, m


def _shih_scan(beta: float, x_dl: float, center: float, n_points: int, span: float) -> "ScanSpec":
    return ScanSpec(
        model="shih",
        swept="dz",
        start=-30.0,
        stop=30.0,
        n_steps=61,
        fixed={"center": center, "sigma": 1.0, "sigma_p": beta, "delta_l": x_dl},
        grid_points=n_points,
        grid_span_sigmas=span,
    )


def criterion_6() -> _Outcome:
    """Exact two-path closed form agrees with grid quadrature."""
    worst = 0.0
    worst_b = 0.0
    for beta, (n_points, span) in _SHIH_GRIDS.items():
        for x_dl in (0.0, 1.0, 5.0, 20.0):
            center = 100.0 if x_dl == 0.0 else _SHIH_PARITY_K[x_dl] * math.pi / (2.0 * x_dl)
            result = run_scan(_shih_scan(beta, x_dl, center, n_points, span))
            worst = max(worst, compare_methods(result).max_abs_dev)
        m20 = ShihModel(center=_SHIH_PARITY_K[20.0] * math.pi / 40.0, sigma=1.0, sigma_p=beta)
        worst_b = max(worst_b, abs(shih_norm_factor(m20, 20.0) - 0.5))
    m = {"max_abs_dev": worst, "b_half_dev": worst_b}
    detail = (
        f"lattice sigma*dl/c in {{0,1,5,20}} x 61 dz x beta in {{0.01,0.1}}: "
        f"max|P_num-P_exact|={worst:.3e} (<1e-3); "
        f"|B-1/2| at sigma*dl/c=20: {worst_b:.2e} (<1e-10)"
    )
    return worst < 1e-3 and worst_b < 1e-10, detail, m


def criterion_7() -> _Outcome:
    """Anti-coalescence peak and the reduced-form agreement.

    The second clause (agreement of the reduced and exact closed forms to
    1e-3) is not satisfiable at these parameters: the reduced form drops a
    pump-width correction ``exp(-beta^2*(sigma*dl/c)^2/(2*(2+beta^2)))``
    whose effect on P at dz=0 is ~4.97e-3 for beta=0.01, sigma*dl/c=20.
    The check is still run as stated and reports the measured gap.
    """
    n_points, span = _SHIH_GRIDS[0.01]
    center = 1001.0 * math.pi / 40.0  # 4*delta_l/lambda = 1001 (odd) at delta_l = 20
    result = run_scan(_shih_scan(0.01, 20.0, center, n_points, span))
    rows = result.rows
    peak_row = max(rows, key=lambda r: r.p_numeric)
    p_at_zero = rows[30].p_numeric
    reduced_gap = max(abs(r.p_closed - r.p_reduced) for r in rows)
    m = {
        "peak_param": peak_row.param,
        "p_at_zero": p_at_zero,
        "reduced_gap": reduced_gap,
    }
    peak_ok = peak_row.param == 0.0 and p_at_zero > 0.9
    reduced_ok = reduced_gap < 1e-3
    detail = (
        f"peak at dz={peak_row.param:g} with P={p_at_zero:.4f} (>0.9): "
        f"{'ok' if peak_ok else 'FAIL'}; "
        f"max|P_exact-P_reduced|={reduced_gap:.3e} (<1e-3): "
        f"{'ok' if reduced_ok else 'FAIL (limit form omits the pump-width correction)'}"
    )
    return peak_ok and reduced_ok, detail, m


def _fock_coincidence(p: BeamSplitterParams) -> float:
    """Brute-force degenerate-pair coincidence on a truncated Fock space.

    Builds explicit ladder matrices for the two output ports at a single
    frequency, substitutes the numerically inverted mode matrix, and
    projects the transformed ``|1,1>`` onto itself.
    """
    dim = 3
    lower = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    raise_1 = np.kron(lower.T, np.eye(dim))
    raise_2 = np.kron(np.eye(dim), lower.T)
    k = np.conj(np.linalg.inv(bs_matrix(p)))
    b1 = k[0, 0] * raise_1 + k[0, 1] * raise_2
    b2 = k[1, 0] * raise_1 + k[1, 1] * raise_2
    vac = np.zeros(dim * dim, dtype=np.complex128)
    vac[0] = 1.0
    out = b1 @ (b2 @ vac)
    ket_11 = np.zeros(dim * dim, dtype=np.complex128)
    ket_11[1 * dim + 1] = 1.0
    return float(abs(np.vdot(ket_11, out)) ** 2)


def criterion_8() -> _Outcome:
    """Degenerate pair at a general splitting angle: ``P = cos(2*theta)**2``."""
    grid = make_grid(0.0, 1.0, 5)
    raw = np.zeros((5, 5), dtype=np.complex128)
    raw[2, 2] = 1.0
    s = BiphotonSpectrum.from_array(grid, raw)
    worst_closed = worst_fock = 0.0
    for theta in (0.0, math.pi / 8.0, math.pi / 4.0, 3.0 * math.pi / 8.0):
        p = BeamSplitterParams(theta=theta, phi_tau=0.3, phi_rho=-0.6)
        prob = transform(s, p).p_coinc
        worst_closed = max(worst_closed, abs(prob - math.cos(2.0 * theta) ** 2))
        worst_fock = max(worst_fock, abs(prob - _fock_coincidence(p)))
    m = {"dev_from_cos2": worst_closed, "dev_from_fock": worst_fock}
    detail = (
        f"theta in {{0, pi/8, pi/4, 3pi/8}}: max|P-cos^2(2 theta)|={worst_closed:.2e}, "
        f"max|P-P_fock|={worst_fock:.2e} (both <1e-12)"
    )
    return worst_closed < 1e-12 and worst_fock < 1e-12, detail, m


def criterion_9() -> _Outcome:
    """The numerically located half-visibility delay sits at c/sigma."""
    grid = make_grid(0.0, 6.0, 257)
    base = gaussian_pair_spectrum(GaussianPairModel(center=0.0, sigma=1.0), grid)
    target = 0.5 * (1.0 - math.exp(-0.5))

    def p_of(dz: float) -> float:
        return coincidence_probability(apply_path_delays(base, dz, 0.0), _BALANCED)

    lo, hi = 0.25, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if p_of(mid) < target:
            lo = mid
        else:
            hi = mid
    width = 0.5 * (lo + hi)
    rel_dev = abs(width - 1.0)
    detail = f"width={width:.6f} c/sigma, |width - c/sigma|/(c/sigma)={rel_dev:.2e} (<1e-2)"
    return rel_dev < 0.01, detail, {"width": width, "rel_dev": rel_dev}


# Each criterion by number: its name and its check, which returns
# (passed, detail, measurements); run_criteria times it and builds its result.
ALL_CRITERIA: dict[int, tuple[str, Callable[[], _Outcome]]] = {
    1: ("gaussian dip matches closed form", criterion_1),
    2: ("dip independent of pump envelope", criterion_2),
    3: ("antisymmetric trapping", criterion_3),
    4: ("coincidence equals antisymmetric weight", criterion_4),
    5: ("probability conservation, unitarity, round trip", criterion_5),
    6: ("two-path exact formula vs quadrature", criterion_6),
    7: ("two-path peak and reduced form", criterion_7),
    8: ("degenerate pair at general splitting angle", criterion_8),
    9: ("dip width equals c/sigma", criterion_9),
}


def run_criteria(numbers: list[int] | None = None) -> list[CriterionResult]:
    """Run the criteria ``numbers`` in that order, or all of them in order for
    None, each timed; an unknown number raises ``ValueError`` when reached."""
    results = []
    for number in sorted(ALL_CRITERIA) if numbers is None else numbers:
        if number not in ALL_CRITERIA:
            raise ValueError(f"unknown criterion {number}; expected 1..9")
        name, check = ALL_CRITERIA[number]
        t0 = time.perf_counter()
        passed, detail, measurements = check()
        results.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - t0, measurements))
    return results
