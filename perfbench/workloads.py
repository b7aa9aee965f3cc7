"""Seeded input lists of the three workloads, and the check of every op.

An op is one call into biphoton's public entry points: ``biphoton.cli.main``
for what the CLI offers, ``biphoton.scans.run_scan`` for path-difference
sweeps, which only the library offers.  ``Op.call`` is the timed part;
``Op.check`` verifies the result against :mod:`oracles` and returns a
digest of the output, which must be the same on every pass.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles

WORKLOADS = ("dip_scan", "shih_scan", "one_shot")

# Tolerances: criterion 1 (dip vs closed form), criterion 6 (two-path
# quadrature vs exact form), and exact identities in double precision.
DIP_TOL = 1e-6
TWO_PATH_TOL = 1e-3
IDENTITY_TOL = 1e-12
# exported magnitudes against the benchmark's own FFT, relative to the peak
EXPORT_TOL = 1e-10

# Two-path lattice of criteria 6 and 7: beta -> (grid points, half-span in sigma).
TWO_PATH_GRIDS = {0.1: (257, 4.5), 0.01: (1025, 4.5)}


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], str]


def _expect(label: str, what: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol):
        raise CheckFailed(
            f"{label}: {what} = {float(got)!r}, expected {float(want)!r} within {tol:g}")


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def run_cli(argv: list[str]) -> str:
    """``biphoton.cli.main(argv)`` with stdout captured; returns the captured text."""
    import biphoton.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = biphoton.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"biphoton {argv[0]} exited with code {code}")
    return out.getvalue()


def _read_table(path: str) -> tuple[list[str], np.ndarray, bytes]:
    with open(path, "rb") as fh:
        raw = fh.read()
    rows = list(csv.reader(io.StringIO(raw.decode())))
    return rows[0], np.array(rows[1:], dtype=float), raw


def _odd_multiple_center(rng: random.Random, dl: float) -> float:
    """Carrier near 90 sigma with ``4 dl / lambda`` an odd integer (the peak parity)."""
    k = 2 * round(rng.uniform(80.0, 100.0) * dl / math.pi) + 1
    return k * math.pi / (2.0 * dl)


def _f(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- dip_scan

def _dip_scan_ops(rng: random.Random, work: str) -> list[Op]:
    ops = []
    for k, pump in enumerate((False, False, True, True)):
        sigma = rng.uniform(0.5, 2.0)
        center = rng.uniform(-3.0, 3.0)
        reach = rng.uniform(3.0, 5.0) / sigma
        beta = rng.uniform(0.3, 3.0)
        path = os.path.join(work, f"dip{k}.csv")
        argv = ["dip-scan", "--sigma", _f(sigma), "--center", _f(center),
                "--dz-min", _f(-reach), "--dz-max", _f(reach), "--steps", "81", "-o", path]
        if pump:
            argv += ["--pump", "gaussian", "--beta", _f(beta)]
        label = f"dip-scan {'gaussian' if pump else 'flat'} pump #{k}"
        ops.append(Op(label, lambda argv=argv: run_cli(argv),
                      lambda out, label=label, path=path, sigma=sigma, reach=reach:
                      _check_dip(label, path, out, sigma, reach)))
    return ops


def _check_dip(label, path, stdout, sigma, reach) -> str:
    header, table, raw = _read_table(path)
    if header != ["param", "P_numeric", "P_closed", "w_antisym"] or table.shape != (81, 4):
        raise CheckFailed(f"{label}: unexpected table {header} {table.shape}")
    for (dz, p_num, p_closed, w_anti), want_dz in zip(table, np.linspace(-reach, reach, 81)):
        _expect(label, "param", dz, want_dz, IDENTITY_TOL * reach)
        want = oracles.hom_dip(sigma, dz)
        _expect(label, f"P_numeric at dz={dz:g}", p_num, want, DIP_TOL)
        _expect(label, f"P_closed at dz={dz:g}", p_closed, want, IDENTITY_TOL)
        _expect(label, f"w_antisym at dz={dz:g}", w_anti, p_num, IDENTITY_TOL)
    json.loads(stdout)
    return _digest(raw)


# ---------------------------------------------------------------- shih_scan

def _shih_scan_ops(rng: random.Random, work: str) -> list[Op]:
    # (beta, swept, steps): delay sweeps through the CLI, path-difference
    # sweeps through run_scan, on both grids.
    plan = [(0.1, "dz", 21), (0.1, "dz", 21), (0.1, "dl", 21), (0.1, "dl", 21),
            (0.01, "dz", 7), (0.01, "dl", 7)]
    ops = []
    for k, (beta, swept, steps) in enumerate(plan):
        n, span = TWO_PATH_GRIDS[beta]
        label = f"two-path {swept} sweep n={n} #{k}"
        if swept == "dz":
            dl = rng.uniform(1.0, 20.0)
            center = _odd_multiple_center(rng, dl)
            reach = rng.uniform(20.0, 30.0)
            path = os.path.join(work, f"shih{k}.csv")
            argv = ["shih-scan", "--beta", _f(beta), "--center", _f(center), "--dl", _f(dl),
                    "--dz-min", _f(-reach), "--dz-max", _f(reach), "--steps", str(steps),
                    "--grid-points", str(n), "--grid-span", _f(span), "-o", path]
            ops.append(Op(label, lambda argv=argv: run_cli(argv),
                          lambda out, label=label, path=path, beta=beta, center=center, dl=dl,
                          reach=reach, steps=steps: _check_shih_dz(
                              label, path, out, beta, center, dl, reach, steps)))
        else:
            center = rng.uniform(70.0, 110.0)
            dz = rng.uniform(-5.0, 5.0)
            dl0 = rng.uniform(3.0, 5.0)
            dl1 = dl0 + rng.uniform(5.0, 15.0)
            fixed = {"sigma": 1.0, "sigma_p": beta, "center": center, "dz": dz}
            spec = dict(model="shih", swept="dl", start=dl0, stop=dl1, n_steps=steps,
                        fixed=fixed, grid_points=n, grid_span_sigmas=span,
                        include_w_antisym=False)
            ops.append(Op(label, lambda spec=spec: _run_scan(spec),
                          lambda result, label=label, beta=beta, center=center, dz=dz,
                          dl0=dl0, dl1=dl1, steps=steps: _check_shih_dl(
                              label, result, beta, center, dz, dl0, dl1, steps)))
    return ops


def _run_scan(spec: dict):
    import biphoton.scans

    return biphoton.scans.run_scan(biphoton.scans.ScanSpec(**spec))


def _check_shih_dz(label, path, stdout, beta, center, dl, reach, steps) -> str:
    header, table, raw = _read_table(path)
    if header != ["param", "P_numeric", "P_exact", "P_reduced"] or table.shape != (steps, 4):
        raise CheckFailed(f"{label}: unexpected table {header} {table.shape}")
    for (dz, p_num, p_exact, p_red), want_dz in zip(table, np.linspace(-reach, reach, steps)):
        _expect(label, "param", dz, want_dz, IDENTITY_TOL * reach)
        want = oracles.two_path_exact(1.0, beta, center, dl, dz)
        _expect(label, f"P_numeric at dz={dz:g}", p_num, want, TWO_PATH_TOL)
        _expect(label, f"P_exact at dz={dz:g}", p_exact, want, IDENTITY_TOL)
        _expect(label, f"P_reduced at dz={dz:g}", p_red,
                oracles.two_path_reduced(1.0, center, dl, dz), IDENTITY_TOL)
    meta = json.loads(stdout)["metadata"]
    _expect(label, "norm_factor_b", meta["norm_factor_b"],
            oracles.two_path_norm(1.0, beta, center, dl), IDENTITY_TOL)
    return _digest(raw)


def _check_shih_dl(label, result, beta, center, dz, dl0, dl1, steps) -> str:
    if len(result.rows) != steps:
        raise CheckFailed(f"{label}: {len(result.rows)} rows, expected {steps}")
    values = []
    for row, want_dl in zip(result.rows, np.linspace(dl0, dl1, steps)):
        dl = row.param
        _expect(label, "param", dl, want_dl, IDENTITY_TOL * dl1)
        want = oracles.two_path_exact(1.0, beta, center, dl, dz)
        _expect(label, f"p_numeric at dl={dl:g}", row.p_numeric, want, TWO_PATH_TOL)
        _expect(label, f"p_closed at dl={dl:g}", row.p_closed, want, IDENTITY_TOL)
        values += [row.param, row.p_numeric, row.p_closed, row.p_reduced]
    return _digest(np.array(values).tobytes())


# ---------------------------------------------------------------- one_shot

def write_spectrum_file(path: str, w: np.ndarray, c: np.ndarray) -> None:
    """The documented spectrum-file format, written independently of biphoton."""
    lines = ["omega," + ",".join(f"{x:.17g}" for x in w)]
    for wi, row in zip(w, c):
        lines.append(f"{wi:.17g}," + ",".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def random_spectrum(gen: np.random.Generator, n: int, w_antisym: float) -> np.ndarray:
    """Unit-norm random matrix with antisymmetric weight ``w_antisym``."""
    m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
    sym, anti = oracles.normalized(m + m.T), oracles.normalized(m - m.T)
    return math.sqrt(1.0 - w_antisym) * sym + math.sqrt(w_antisym) * anti


def make_one_shot_files(rng: random.Random, work: str) -> list[tuple[str, np.ndarray]]:
    """Write the seeded n=257 spectrum files; returns ``(path, unit-norm matrix)`` pairs."""
    gen = np.random.default_rng(rng.getrandbits(64))
    out = []
    for k in range(2):
        center, half = gen.uniform(-2.0, 2.0), gen.uniform(3.0, 8.0)
        w = oracles.frequencies(center, half, 257)
        c = random_spectrum(gen, 257, gen.uniform(0.05, 0.95))
        path = os.path.join(work, f"spectrum{k}.csv")
        write_spectrum_file(path, w, c)
        out.append((path, c))
    return out


def _one_shot_ops(rng: random.Random, work: str, files) -> list[Op]:
    ops = []

    def transform_op(label, flags, n, span, expect):
        path = os.path.join(work, f"report{len(ops)}.json")
        argv = ["transform", *flags, "--grid-points", str(n), "--grid-span", _f(span), "-o", path]
        ops.append(Op(label, lambda: run_cli(argv),
                      lambda out: _check_report(label, path, expect)))

    def wavepacket_op(label, flags, n, span, w, c):
        path = os.path.join(work, f"packet{len(ops)}.csv")
        argv = ["wavepacket", *flags, "--grid-points", str(n), "--grid-span", _f(span),
                "--domain", "time", "-o", path]
        ops.append(Op(label, lambda: run_cli(argv),
                      lambda out: _check_packet(label, path, out, w, c)))

    sigma, center, dz = rng.uniform(0.5, 2.0), rng.uniform(-3.0, 3.0), rng.uniform(0.3, 2.0)
    want = oracles.hom_dip(sigma, dz)
    flat = ["--model", "gaussian_pair", "--sigma", _f(sigma), "--center", _f(center)]
    transform_op("transform gaussian_pair flat n=1025", flat + ["--dz", _f(dz)], 1025, 6.0,
                 {"p_coinc": (want, DIP_TOL), "rank1_fraction": (1.0, IDENTITY_TOL),
                  "trapping_fidelity": (want * want, DIP_TOL)})

    beta, dz2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 2.0)
    transform_op("transform gaussian_pair pumped n=513",
                 flat + ["--pump", "gaussian", "--beta", _f(beta), "--dz", _f(dz2)], 513, 6.0,
                 {"p_coinc": (oracles.hom_dip(sigma, dz2), DIP_TOL)})

    dl = rng.uniform(1.0, 20.0)
    shih_center, dz3 = _odd_multiple_center(rng, dl), rng.uniform(-3.0, 3.0)
    transform_op("transform shih n=257",
                 ["--model", "shih", "--beta", "0.1", "--center", _f(shih_center),
                  "--dl", _f(dl), "--dz", _f(dz3)], *TWO_PATH_GRIDS[0.1],
                 {"p_coinc": (oracles.two_path_exact(1.0, 0.1, shih_center, dl, dz3),
                              TWO_PATH_TOL)})

    for parity, p in (("even", 0.0), ("odd", 1.0)):
        d_dl = rng.uniform(0.5, 3.0)
        transform_op(f"transform delta_pump {parity} n=513",
                     ["--model", "delta_pump", "--sigma", _f(sigma), "--center", _f(center),
                      "--dl", _f(d_dl), "--parity", parity], 513, 6.0,
                     {"p_coinc": (p, IDENTITY_TOL), "trapping_fidelity": (p, IDENTITY_TOL)})

    omega_a, omega_b = rng.uniform(-3.0, -1.0), rng.uniform(1.0, 3.0)
    transform_op("transform bell n=513",
                 ["--model", "bell", "--omega-a", _f(omega_a), "--omega-b", _f(omega_b)], 513, 6.0,
                 {"p_coinc": (1.0, IDENTITY_TOL), "trapping_fidelity": (1.0, IDENTITY_TOL)})

    for k, (path, c) in enumerate(files):
        p = oracles.antisymmetric_weight(c)
        ops.append(Op(f"transform spectrum file #{k} n=257",
                      lambda path=path: run_cli(["transform", "--spectrum-file", path,
                                                  "-o", path + ".json"]),
                      lambda out, k=k, path=path, c=c, p=p: _check_report(
                          f"spectrum file #{k}", path + ".json",
                          {"p_coinc": (p, IDENTITY_TOL),
                           "rank1_fraction": (oracles.rank1_fraction(c), 1e-10),
                           "trapping_fidelity": (oracles.trapping_fidelity(c), IDENTITY_TOL)})))

    w = oracles.frequencies(center, 6.0 * sigma, 513)
    wavepacket_op("wavepacket time gaussian_pair flat n=513", flat + ["--dz", _f(dz)],
                  513, 6.0, w, oracles.gaussian_pair(w, center, sigma, dz=dz))
    d_dl = rng.uniform(0.5, 3.0)
    w = oracles.frequencies(center, 6.0 * sigma, 257)
    wavepacket_op("wavepacket time delta_pump odd n=257",
                  ["--model", "delta_pump", "--sigma", _f(sigma), "--center", _f(center),
                   "--dl", _f(d_dl), "--parity", "odd"], 257, 6.0,
                  w, oracles.anti_diagonal(w, center, sigma, d_dl, "odd"))
    return ops


def _check_report(label, path, expect) -> str:
    with open(path, "rb") as fh:
        raw = fh.read()
    r = json.loads(raw)
    _expect(label, "p_11 + p_22 + p_coinc", r["p_11"] + r["p_22"] + r["p_coinc"], 1.0,
            IDENTITY_TOL)
    _expect(label, "w_antisym", r["w_antisym"], r["p_coinc"], IDENTITY_TOL)
    _expect(label, "(1 - exchange_overlap)/2", 0.5 * (1.0 - r["exchange_overlap"]),
            r["p_coinc"], IDENTITY_TOL)
    for key, (want, tol) in expect.items():
        _expect(label, key, r[key], want, tol)
    return _digest(raw)


def _check_packet(label, path, stdout, w, c) -> str:
    meta = json.loads(stdout)["metadata"]
    _expect(label, "parseval_power", meta["parseval_power"], 1.0, IDENTITY_TOL)
    rank1 = oracles.rank1_fraction(c)
    _expect(label, "rank1_fraction", meta["rank1_fraction"], rank1, 1e-10)
    if rank1 > 1.0 - 1e-6:
        _expect(label, "factorization_residual", meta["factorization_residual"], 0.0, 1e-10)
    elif "factorization_residual" in meta:
        raise CheckFailed(f"{label}: factorization residual reported for an entangled state")
    t, values = oracles.time_domain(w, c)
    magnitudes = np.abs(values)
    tol = EXPORT_TOL * float(magnitudes.max())
    h = hashlib.sha256()
    i = -1
    with open(path, "rb") as fh:
        header = fh.readline()
        h.update(header)
        axis = np.array(header.decode().split(",")[1:], dtype=float)
        if axis.shape != t.shape or np.max(np.abs(axis - t)) > IDENTITY_TOL * float(t.max()):
            raise CheckFailed(f"{label}: time axis differs from the conjugate grid")
        for i, line in enumerate(fh):
            h.update(line)
            row = np.array(line.decode().split(",")[1:], dtype=float)
            if row.shape != t.shape or np.max(np.abs(row - magnitudes[i])) > tol:
                raise CheckFailed(f"{label}: exported magnitudes differ from the FFT in row {i}")
    if i != t.size - 1:
        raise CheckFailed(f"{label}: {i + 1} exported rows, expected {t.size}")
    return h.hexdigest()


def build(workload: str, seed: int, work: str) -> list[Op]:
    """The fixed, seeded op list of one pass of ``workload``; writes its input files."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dip_scan":
        return _dip_scan_ops(rng, work)
    if workload == "shih_scan":
        return _shih_scan_ops(rng, work)
    if workload == "one_shot":
        return _one_shot_ops(rng, work, make_one_shot_files(rng, work))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
