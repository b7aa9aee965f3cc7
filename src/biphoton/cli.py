"""Command-line interface.

Subcommands:

* ``dip-scan``   — delay scan of the Gaussian pair (numeric + closed form).
* ``shih-scan``  — delay scan of the two-path pump-entangled model.
* ``transform``  — one-shot beam-splitter report for a model or spectrum file.
* ``wavepacket`` — export |amplitude| matrices in the frequency or time domain.
* ``validate``   — run the built-in verification suite.

Exit codes: 0 success, 2 usage/configuration error (an unreadable input file
or an unwritable output path included), 3 numerical failure.
Unrecognized flags abort before any computation.  Natural units
(``sigma = c = 1``) are the default; ``--units si`` requires an explicit
``--c-light``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Any

import numpy as np

from . import fileio
from .beamsplitter import BeamSplitterParams, exchange_report
from .errors import ConfigError, DegenerateSpectrumError
from .scans import (
    MODELS,
    ScanSpec,
    _alias_warnings,
    _delayed_state,
    run_scan,
)
from .spectrum import (
    _EXCHANGE_SLAB,
    _FactoredState,
    _leading_singular_pair,
    _time_transform,
    time_domain,
)
from .validation import ALL_CRITERIA, run_criteria


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
    source.add_argument("--model", choices=[name for name in MODELS if name != "spectrum_file"])
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


# The fixed keys each source flag can set, by destination.
_SOURCE_FLAGS = {"sigma": {"sigma"}, "center": {"center"}, "pump": {"pump_sigma"},
                 "beta": {"sigma_p", "pump_sigma"}, "dl": {"delta_l", "dl"},
                 "parity": {"parity"}, "omega_a": {"omega_a"}, "omega_b": {"omega_b"}}


def _model_fixed(args: argparse.Namespace, c_light: float) -> tuple[str, dict[str, Any]]:
    """Translate CLI flags into a (model, fixed-parameters) pair.

    Each model keeps the parameters its ``MODELS`` entry accepts, and a
    source flag set off its parser default that sets none of them is
    refused.  ``--dz`` is not among them: it is the relative delay of the
    input state.
    """
    opts = vars(args)
    if opts.get("spectrum_file") is not None:
        model, fixed = "spectrum_file", {"path": args.spectrum_file, "c_light": c_light}
    else:
        beta = opts.get("beta")
        scaled_beta = None if beta is None else beta * args.sigma
        gaussian_pump = opts.get("pump") == "gaussian"
        if gaussian_pump and beta is None:
            raise ConfigError("--pump gaussian requires --beta")
        flags = {  # fixed key: (flag, value)
            "sigma": ("--sigma", args.sigma),
            "sigma_p": ("--beta", scaled_beta),
            "center": ("--center", args.center),
            "delta_l": ("--dl", opts.get("dl")),
            "dl": ("--dl", opts.get("dl")),
            "parity": ("--parity", opts.get("parity")),
            "omega_a": ("--omega-a", opts.get("omega_a")),
            "omega_b": ("--omega-b", opts.get("omega_b")),
            "c_light": ("--c-light", c_light),
            "pump_sigma": ("--beta", scaled_beta if gaussian_pump else None),
        }
        model, entry = args.model, MODELS[args.model]
        for key in entry.required:
            if flags[key][1] is None:
                raise ConfigError(f"model {model} requires {flags[key][0]}")
        fixed = {key: v for key, (_, v) in flags.items() if key in entry.keys and v is not None}
    defaults = _source_defaults()
    for dest, keys in _SOURCE_FLAGS.items():
        if opts.get(dest, defaults[dest]) != defaults[dest] and not keys & fixed.keys():
            source = "a spectrum file" if model == "spectrum_file" else f"model {model}"
            raise ConfigError(f"--{dest.replace('_', '-')} sets no parameter of {source}")
    return model, fixed


def _write_json(payload: dict[str, Any], path: str | None) -> None:
    text = json.dumps(payload, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


_DIP_COLUMNS = (("param", "param"), ("P_numeric", "p_numeric"), ("P_closed", "p_closed"),
                ("w_antisym", "w_antisym"))
_SHIH_COLUMNS = (("param", "param"), ("P_numeric", "p_numeric"), ("P_exact", "p_closed"),
                 ("P_reduced", "p_reduced"))


def _cmd_scan(args: argparse.Namespace) -> int:
    """Delay scan of the subcommand's model, written as ``args.columns``."""
    model, fixed = _model_fixed(args, _c_light(args))
    spec = ScanSpec(
        model=model,
        swept="dz",
        start=args.dz_min,
        stop=args.dz_max,
        n_steps=args.steps,
        fixed=fixed,
        grid_points=args.grid_points,
        grid_span_sigmas=args.grid_span,
        include_w_antisym=("w_antisym", "w_antisym") in args.columns,
    )
    result = run_scan(spec)
    if args.format == "csv":
        fileio.write_scan_csv(result, args.columns, args.output)
        sys.stdout.write(json.dumps({"metadata": result.metadata}) + "\n")
    else:
        fileio.write_scan_json(result, args.columns, args.output)
    return 0


def _load_input_state(args: argparse.Namespace):
    """The input state of the flags, warned when one of its path delays aliases:
    its factors where the source is a model, else the spectrum of its file."""
    c_light = _c_light(args)
    model, fixed = _model_fixed(args, c_light)
    row = {**fixed, "dz": args.dz}
    state = _delayed_state(model, row, args.grid_points, args.grid_span)
    aliasing = _alias_warnings(model, [row], state.grid, c_light)
    if aliasing:
        state = dataclasses.replace(state, warnings=(*state.warnings, *aliasing))
    return state


def cmd_transform(args: argparse.Namespace) -> int:
    state = _load_input_state(args)
    params = BeamSplitterParams(theta=args.theta, phi_tau=args.phi_tau, phi_rho=args.phi_rho)
    scalars = exchange_report(state, params)
    report = {
        "theta": args.theta,
        "phi_tau": args.phi_tau,
        "phi_rho": args.phi_rho,
        "p_11": scalars["p_11"],
        "p_22": scalars["p_22"],
        "p_coinc": scalars["p_coinc"],
        "w_antisym": scalars["w_antisym"],
        "exchange_overlap": scalars["exchange_overlap"],
        "rank1_fraction": _leading_singular_pair(state)[0],
        "trapping_fidelity": scalars["trapping_fidelity"],
        "warnings": list(state.warnings),
    }
    _write_json(report, args.output)
    return 0


def cmd_wavepacket(args: argparse.Namespace) -> int:
    s = _load_input_state(args)
    rank1, sigma, u, v = _leading_singular_pair(s)
    if isinstance(s, _FactoredState):
        s = s.spectrum()
    metadata: dict[str, Any] = {
        "domain": args.domain,
        "rank1_fraction": rank1,
        "warnings": list(s.warnings),
    }
    if args.domain == "frequency":
        axis_label, axis = "omega", s.grid.frequencies()
        magnitudes = np.abs(s.amplitudes)
    else:
        grid, packet = s.grid, time_domain(s)
        # the frequency matrix is freed, and the power and the residual are
        # taken before the magnitudes are made: at most two n x n matrices
        del s
        axis_label, axis = "time", packet.time_axis
        metadata["parseval_power"] = packet.total_power()
        if rank1 > 1.0 - 1e-6:
            metadata["factorization_residual"] = _factorization_residual(
                grid, packet, sigma * u, np.conj(v)
            )
        magnitudes = np.abs(packet.values)
    if args.format == "csv":
        fileio.save_magnitude_matrix(axis_label, axis, magnitudes, args.output)
        sys.stdout.write(json.dumps({"metadata": metadata}) + "\n")
    else:
        payload = {
            "axis_label": axis_label,
            "axis": axis.tolist(),
            "magnitudes": magnitudes.tolist(),
            "metadata": metadata,
        }
        _write_json(payload, args.output)
    return 0


def _factorization_residual(grid, packet, left, right) -> float:
    # Rank-1 input c = outer(left, right) on ``grid``: the time wavepacket
    # must factor into the 1D transforms of the two factors.  Slabs of rows
    # keep the differences out of an n x n temporary.
    left = _time_transform(left, grid)
    right = _time_transform(right, grid)
    residual = peak = 0.0
    for i in range(0, len(left), _EXCHANGE_SLAB):
        rows = slice(i, i + _EXCHANGE_SLAB)
        residual = max(residual, np.max(np.abs(packet.values[rows] - np.outer(left[rows], right))))
        peak = max(peak, np.max(np.abs(packet.values[rows])))
    return float(residual / peak)


def cmd_validate(args: argparse.Namespace) -> int:
    numbers = None
    if args.only:
        try:
            numbers = [int(tok) for tok in args.only.split(",")]
        except ValueError:
            numbers = []
        if not numbers or not set(numbers) <= ALL_CRITERIA.keys():
            echo = repr(args.only[:40]) + "..." * (len(args.only) > 40)  # one short line
            raise ConfigError(f"--only expects comma-separated criterion numbers, got {echo}")
    results = run_criteria(numbers)
    failed = [r for r in results if not r.passed]
    if args.json:
        _write_json({
            "criteria": [dataclasses.asdict(r) for r in results],
            "passed": len(results) - len(failed),
            "total": len(results),
        }, None)
    else:
        for result in results:
            sys.stdout.write(result.summary_line() + "\n")
        sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="biphoton",
        description="Two-photon interference at a lossless beam splitter: "
        "coincidence probabilities, delay scans, wavepacket exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dip = sub.add_parser("dip-scan", help="delay scan of the Gaussian pair")
    dip.add_argument("--sigma", type=float, default=1.0, help="single-photon bandwidth")
    dip.add_argument("--center", type=float, default=0.0, help="center angular frequency")
    dip.add_argument("--pump", choices=("constant", "gaussian"), default="constant")
    dip.add_argument("--beta", type=float, default=None, help="pump/photon bandwidth ratio")
    dip.set_defaults(model="gaussian_pair", columns=_DIP_COLUMNS)

    shih = sub.add_parser("shih-scan", help="delay scan of the two-path model")
    shih.add_argument("--sigma", type=float, default=1.0)
    shih.add_argument("--beta", type=float, required=True, help="pump/photon bandwidth ratio")
    shih.add_argument("--center", type=float, required=True, help="carrier angular frequency")
    shih.add_argument("--dl", type=float, required=True, help="half path-length difference")
    shih.set_defaults(model="shih", columns=_SHIH_COLUMNS)

    for p in (dip, shih):
        _add_common_flags(p)
        p.add_argument("--dz-min", type=float, required=True)
        p.add_argument("--dz-max", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("-o", "--output", required=True, help="output table path")
        p.set_defaults(handler=_cmd_scan)

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
    p.add_argument("--json", action="store_true",
                   help="print each criterion's result and measurements as one JSON object")
    p.set_defaults(handler=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: building it costs ~2 ms, and parsing leaves it unchanged
    return build_parser()


@functools.cache
def _source_defaults() -> dict[str, Any]:
    # every command declares its source flags with the defaults of transform's
    return vars(_parser().parse_args(["transform", "--model", "bell"]))


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _negative_values_attached(argv: list[str]) -> list[str]:
    """``argv`` with each negative number that follows a flag joined to it as ``flag=value``.

    argparse reads only ``-1`` and ``-.5`` as negative numbers: it would take
    ``-4e0``, ``-5e-324``, ``-inf`` or a list such as ``-1,8`` for a flag of
    its own.  A token counts as a number when its first comma-separated item
    does.
    """
    out: list[str] = []
    for token in argv:
        flag = out[-1] if out else ""
        if (token.startswith("-") and _is_number(token.split(",", 1)[0])
                and flag.startswith("-") and "=" not in flag and not _is_number(flag)):
            out[-1] = f"{flag}={token}"
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(_negative_values_attached(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except (DegenerateSpectrumError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    # configuration errors and spectrum-file errors are ValueErrors; an
    # OSError is an unreadable input or an unwritable output path
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
