"""Command-line interface.

Subcommands:

* ``dip-scan``   — delay scan of the Gaussian pair (numeric + closed form).
* ``shih-scan``  — delay scan of the two-path pump-entangled model.
* ``transform``  — one-shot beam-splitter report for a model or spectrum file.
* ``wavepacket`` — export |amplitude| matrices in the frequency or time domain.
* ``validate``   — run the built-in verification suite.

Exit codes: 0 success, 2 usage/configuration error, 3 numerical failure.
Unrecognized flags abort before any computation.  Natural units
(``sigma = c = 1``) are the default; ``--units si`` requires an explicit
``--c-light``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any

import numpy as np

from . import fileio
from .beamsplitter import BeamSplitterParams, transform, trapping_fidelity
from .errors import ConfigError, DegenerateSpectrumError, SpectrumFileError
from .scans import ScanSpec, load_model_spectrum, run_scan, validate_model_params
from .spectrum import (
    antisymmetric_weight,
    apply_path_delays,
    exchange_overlap,
    separability_rank1_fraction,
    time_domain,
)
from .validation import run_criteria


def _add_common_flags(p: argparse.ArgumentParser, with_format: bool = True) -> None:
    p.add_argument("--units", choices=("natural", "si"), default="natural",
                   help="unit convention (natural: sigma = c = 1)")
    p.add_argument("--c-light", type=float, default=None,
                   help="speed of light, required with --units si")
    p.add_argument("--grid-points", type=int, default=257,
                   help="odd number of frequency grid points")
    p.add_argument("--grid-span", type=float, default=6.0,
                   help="grid half-span in units of sigma (tone gap for the bell model)")
    if with_format:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tables/matrices")


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=("gaussian_pair", "shih", "delta_pump", "bell"))
    source.add_argument("--spectrum-file", help="CSV spectrum file as input state")
    p.add_argument("--sigma", type=float, default=1.0, help="single-photon bandwidth")
    p.add_argument("--center", type=float, default=0.0, help="center angular frequency")
    p.add_argument("--pump", choices=("constant", "gaussian"), default="constant",
                   help="pump envelope of the gaussian_pair model")
    p.add_argument("--beta", type=float, default=None, help="pump/photon bandwidth ratio")
    p.add_argument("--dl", type=float, default=0.0, help="half path-length difference")
    p.add_argument("--parity", choices=("even", "odd"), default="even",
                   help="path-difference parity of the delta_pump model")
    p.add_argument("--omega-a", type=float, default=None, help="first bell tone")
    p.add_argument("--omega-b", type=float, default=None, help="second bell tone")
    p.add_argument("--dz", type=float, default=0.0, help="relative path delay z1 - z2")


def _c_light(args: argparse.Namespace) -> float:
    if args.units == "si":
        if args.c_light is None:
            raise ConfigError("--units si requires --c-light")
        if not (math.isfinite(args.c_light) and args.c_light > 0):
            raise ConfigError("--c-light must be positive and finite")
        return args.c_light
    if args.c_light is not None:
        raise ConfigError("--c-light is only meaningful with --units si")
    return 1.0


def _model_fixed(args: argparse.Namespace, c_light: float) -> tuple[str, dict[str, Any]]:
    """Translate CLI flags into a (model, fixed-parameters) pair."""
    if args.spectrum_file is not None:
        return "spectrum_file", {"path": args.spectrum_file, "c_light": c_light}
    model = args.model
    if model == "gaussian_pair":
        fixed: dict[str, Any] = {"sigma": args.sigma, "center": args.center, "c_light": c_light}
        if args.pump == "gaussian":
            if args.beta is None:
                raise ConfigError("--pump gaussian requires --beta")
            fixed["pump_sigma"] = args.beta * args.sigma
        elif args.beta is not None:
            raise ConfigError("--beta is only meaningful with --pump gaussian or model shih")
        return model, fixed
    if model == "shih":
        if args.beta is None:
            raise ConfigError("model shih requires --beta")
        if args.center <= 0:
            raise ConfigError("model shih requires --center > 0 (sets the carrier wavelength)")
        return model, {
            "sigma": args.sigma,
            "sigma_p": args.beta * args.sigma,
            "center": args.center,
            "delta_l": args.dl,
            "dz": args.dz,
            "c_light": c_light,
        }
    if model == "delta_pump":
        return model, {
            "sigma": args.sigma,
            "center": args.center,
            "dl": args.dl,
            "parity": args.parity,
            "c_light": c_light,
        }
    if model == "bell":
        if args.omega_a is None or args.omega_b is None:
            raise ConfigError("model bell requires --omega-a and --omega-b")
        return model, {"omega_a": args.omega_a, "omega_b": args.omega_b, "c_light": c_light}
    raise ConfigError(f"unknown model {model!r}")


def _write_json(payload: dict[str, Any], path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _emit_scan(result, columns, args) -> None:
    if args.format == "csv":
        fileio.write_scan_csv(result, columns, args.output)
        sys.stdout.write(json.dumps({"metadata": result.metadata}) + "\n")
    else:
        fileio.write_scan_json(result, columns, args.output)


def cmd_dip_scan(args: argparse.Namespace) -> int:
    c_light = _c_light(args)
    fixed: dict[str, Any] = {"sigma": args.sigma, "center": args.center, "c_light": c_light}
    if args.pump == "gaussian":
        if args.beta is None:
            raise ConfigError("--pump gaussian requires --beta")
        fixed["pump_sigma"] = args.beta * args.sigma
    elif args.beta is not None:
        raise ConfigError("--beta is only meaningful with --pump gaussian")
    spec = ScanSpec(
        model="gaussian_pair",
        swept="dz",
        start=args.dz_min,
        stop=args.dz_max,
        n_steps=args.steps,
        fixed=fixed,
        grid_points=args.grid_points,
        grid_span_sigmas=args.grid_span,
    )
    result = run_scan(spec)
    columns = [
        ("param", "param"),
        ("P_numeric", "p_numeric"),
        ("P_closed", "p_closed"),
        ("w_antisym", "w_antisym"),
    ]
    _emit_scan(result, columns, args)
    return 0


def cmd_shih_scan(args: argparse.Namespace) -> int:
    c_light = _c_light(args)
    if args.center <= 0:
        raise ConfigError("shih-scan requires --center > 0 (sets the carrier wavelength)")
    spec = ScanSpec(
        model="shih",
        swept="dz",
        start=args.dz_min,
        stop=args.dz_max,
        n_steps=args.steps,
        fixed={
            "sigma": args.sigma,
            "sigma_p": args.beta * args.sigma,
            "center": args.center,
            "delta_l": args.dl,
            "c_light": c_light,
        },
        grid_points=args.grid_points,
        grid_span_sigmas=args.grid_span,
        include_w_antisym=False,
    )
    result = run_scan(spec)
    columns = [
        ("param", "param"),
        ("P_numeric", "p_numeric"),
        ("P_exact", "p_closed"),
        ("P_reduced", "p_reduced"),
    ]
    _emit_scan(result, columns, args)
    return 0


def _load_input_state(args: argparse.Namespace):
    c_light = _c_light(args)
    model, fixed = _model_fixed(args, c_light)
    validate_model_params(model, fixed)
    s = load_model_spectrum(model, fixed, args.grid_points, args.grid_span)
    # shih carries its delay internally; the rest get an explicit signal delay
    if model != "shih" and args.dz != 0.0:
        s = apply_path_delays(s, args.dz, 0.0, c_light)
    return s


def cmd_transform(args: argparse.Namespace) -> int:
    s = _load_input_state(args)
    params = BeamSplitterParams(theta=args.theta, phi_tau=args.phi_tau, phi_rho=args.phi_rho)
    decomposition = transform(s, params)
    report = {
        "theta": args.theta,
        "phi_tau": args.phi_tau,
        "phi_rho": args.phi_rho,
        "p_11": decomposition.p_11,
        "p_22": decomposition.p_22,
        "p_coinc": decomposition.p_coinc,
        "w_antisym": antisymmetric_weight(s),
        "exchange_overlap": exchange_overlap(s),
        "rank1_fraction": separability_rank1_fraction(s),
        "trapping_fidelity": trapping_fidelity(s),
        "warnings": list(s.warnings),
    }
    _write_json(report, args.output)
    return 0


def cmd_wavepacket(args: argparse.Namespace) -> int:
    s = _load_input_state(args)
    rank1 = separability_rank1_fraction(s)
    metadata: dict[str, Any] = {
        "domain": args.domain,
        "rank1_fraction": rank1,
        "warnings": list(s.warnings),
    }
    if args.domain == "frequency":
        axis_label, axis = "omega", s.grid.frequencies()
        magnitudes = np.abs(s.amplitudes)
    else:
        packet = time_domain(s)
        axis_label, axis = "time", packet.time_axis
        magnitudes = np.abs(packet.values)
        metadata["parseval_power"] = packet.total_power()
        if rank1 > 1.0 - 1e-6:
            metadata["factorization_residual"] = _factorization_residual(s, packet)
    if args.format == "csv":
        fileio.save_magnitude_matrix(axis_label, axis, magnitudes, args.output)
        sys.stdout.write(json.dumps({"metadata": metadata}) + "\n")
    else:
        payload = {
            "axis_label": axis_label,
            "axis": [float(x) for x in axis],
            "magnitudes": [[float(v) for v in row] for row in magnitudes],
            "metadata": metadata,
        }
        _write_json(payload, args.output)
    return 0


def _factorization_residual(s, packet) -> float:
    # Rank-1 input: the time wavepacket must factor into 1D transforms.
    u, sv, vh = np.linalg.svd(s.amplitudes)
    f = np.exp(-1j * np.outer(packet.time_axis, s.grid.frequencies()))
    left = f @ (sv[0] * u[:, 0])
    right = f @ vh[0, :]
    residual = np.max(np.abs(packet.values - np.outer(left, right)))
    return float(residual / np.max(np.abs(packet.values)))


def cmd_validate(args: argparse.Namespace) -> int:
    numbers = None
    if args.only:
        try:
            numbers = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            raise ConfigError(f"--only expects comma-separated criterion numbers, got {args.only!r}")
    results = run_criteria(numbers)
    for result in results:
        sys.stdout.write(result.summary_line() + "\n")
    failed = [r for r in results if not r.passed]
    sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference at a lossless beam splitter: "
        "coincidence probabilities, delay scans, wavepacket exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dip-scan", help="delay scan of the Gaussian pair")
    _add_common_flags(p)
    p.add_argument("--sigma", type=float, default=1.0, help="single-photon bandwidth")
    p.add_argument("--center", type=float, default=0.0, help="center angular frequency")
    p.add_argument("--pump", choices=("constant", "gaussian"), default="constant")
    p.add_argument("--beta", type=float, default=None, help="pump/photon bandwidth ratio")
    p.add_argument("--dz-min", type=float, required=True)
    p.add_argument("--dz-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="output table path")
    p.set_defaults(handler=cmd_dip_scan)

    p = sub.add_parser("shih-scan", help="delay scan of the two-path model")
    _add_common_flags(p)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--beta", type=float, required=True, help="pump/photon bandwidth ratio")
    p.add_argument("--center", type=float, required=True, help="carrier angular frequency")
    p.add_argument("--dl", type=float, required=True, help="half path-length difference")
    p.add_argument("--dz-min", type=float, required=True)
    p.add_argument("--dz-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--output", required=True, help="output table path")
    p.set_defaults(handler=cmd_shih_scan)

    p = sub.add_parser("transform", help="single-shot beam-splitter report")
    _add_common_flags(p, with_format=False)
    _add_model_flags(p)
    p.add_argument("--theta", type=float, default=math.pi / 4.0,
                   help="splitting angle in radians (default: balanced)")
    p.add_argument("--phi-tau", type=float, default=0.0)
    p.add_argument("--phi-rho", type=float, default=0.0)
    p.add_argument("-o", "--output", default=None, help="report path (default: stdout)")
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("wavepacket", help="export |amplitude| matrices")
    _add_common_flags(p)
    _add_model_flags(p)
    p.add_argument("--domain", choices=("frequency", "time"), default="frequency")
    p.add_argument("-o", "--output", required=True, help="matrix output path")
    p.set_defaults(handler=cmd_wavepacket)

    p = sub.add_parser("validate", help="run the built-in verification suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.set_defaults(handler=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except SpectrumFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except DegenerateSpectrumError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except (ArithmeticError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
