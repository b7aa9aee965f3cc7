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
import re
import sys
from typing import Any, Callable, NamedTuple, NoReturn

import numpy as np

from . import fileio
from .beamsplitter import BeamSplitterParams, exchange_report
from .errors import ConfigError, DegenerateSpectrumError
from .scans import (
    MODELS,
    REQUIRED,
    ScanSpec,
    _alias_warnings,
    _delayed_state,
    model_params,
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


_GRID_DEFAULTS = {"grid_points": ScanSpec.grid_points, "grid_span": ScanSpec.grid_span_sigmas}


def _add_common_flags(p: argparse.ArgumentParser, with_format: bool = True) -> None:
    p.add_argument("--units", choices=("natural", "si"), default="natural",
                   help="unit convention (natural: sigma = c = 1)")
    p.add_argument("--grid-points", type=int, default=_GRID_DEFAULTS["grid_points"],
                   help="odd number of frequency grid points")
    p.add_argument("--grid-span", type=float, default=_GRID_DEFAULTS["grid_span"],
                   help="grid half-span in units of sigma (tone gap for the bell model)")
    if with_format:
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format for tables/matrices")


def _c_light(opts: dict[str, Any]) -> float:
    if opts["units"] == "si":
        if opts["c_light"] is None:
            raise ConfigError("--units si requires --c-light")
        if not (math.isfinite(opts["c_light"]) and opts["c_light"] > 0):
            raise ConfigError("--c-light must be positive and finite")
        return opts["c_light"]
    if opts["c_light"] is not None:
        raise ConfigError("--c-light is only meaningful with --units si")
    return _DEFAULT_OF["c_light"]


def _pump_width(opts: dict[str, Any]) -> float | None:
    if opts["beta"] is None and opts["pump"] == "gaussian":
        raise ConfigError("--pump gaussian requires --beta")
    return None if opts["beta"] is None else opts["beta"] * opts["sigma"]


class _SourceFlag(NamedTuple):
    keys: tuple[str, ...]  # the fixed keys it sets
    help: str
    default: Any = None
    choices: tuple[str, ...] | None = None  # else a float
    value: Callable[[dict[str, Any]], Any] | None = None  # else its own value


# The source keys' defaults in the MODELS params, on which the models agree.
_DEFAULT_OF = {key: default for entry in MODELS.values()
               for key, default in entry.params.items() if default not in (None, REQUIRED)}

# Every source flag by destination, in the order of the fixed keys it sets.
# The parser leaves a flag that was not given at None, and ``value`` reads
# the flags with each source flag at its default instead.  A key that two
# flags set takes its value and its place from the later one: --beta gives
# pump_sigma its width only under --pump gaussian.
_SOURCE_FLAGS = {
    "sigma": _SourceFlag(("sigma",), "single-photon bandwidth", _DEFAULT_OF["sigma"]),
    "beta": _SourceFlag(("sigma_p", "pump_sigma"), "pump/photon bandwidth ratio",
                        value=_pump_width),
    "center": _SourceFlag(("center",), "center angular frequency", _DEFAULT_OF["center"]),
    "dl": _SourceFlag(("delta_l", "dl"), "half path-length difference", _DEFAULT_OF["dl"]),
    "parity": _SourceFlag(("parity",), "path-difference parity of the delta_pump model",
                          _DEFAULT_OF["parity"], ("even", "odd")),
    "omega_a": _SourceFlag(("omega_a",), "first bell tone"),
    "omega_b": _SourceFlag(("omega_b",), "second bell tone"),
    "c_light": _SourceFlag(("c_light",), "speed of light, required with --units si",
                           value=_c_light),
    "pump": _SourceFlag(("pump_sigma",), "pump envelope of the gaussian_pair model",
                        "constant", ("constant", "gaussian"),
                        lambda opts: _pump_width(opts) if opts["pump"] == "gaussian" else None),
}


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _add_source_flags(p: argparse.ArgumentParser, only: tuple[str, ...] = tuple(_SOURCE_FLAGS),
                      required: tuple[str, ...] = ()) -> None:
    for dest in only:
        row = _SOURCE_FLAGS[dest]
        p.add_argument(_flag(dest), type=None if row.choices else float, choices=row.choices,
                       required=dest in required, help=row.help)


def _model_fixed(args: argparse.Namespace) -> tuple[str, dict[str, Any]]:
    """Translate CLI flags into a (model, fixed-parameters) pair.

    Each model keeps the parameters its ``MODELS`` entry accepts.  A
    parameter the model requires whose flag was not given is refused, and
    so is a flag given off its default that sets none of them (no grid flag
    sets one of a spectrum file's).  ``--dz`` is not among them: it is the
    relative delay of the input state.
    """
    given = vars(args)
    opts = given | {dest: row.default if given.get(dest) is None else given[dest]
                    for dest, row in _SOURCE_FLAGS.items()}
    model = "spectrum_file" if given.get("spectrum_file") is not None else args.model
    fixed = {"path": args.spectrum_file} if model == "spectrum_file" else {}
    entry = MODELS[model]
    for dest, row in _SOURCE_FLAGS.items():
        for key in row.keys:
            if entry.params.get(key) is REQUIRED and given.get(dest) is None:
                raise ConfigError(f"model {model} requires {_flag(dest)}")
            if key in entry.params:
                fixed.pop(key, None)
                value = opts[dest] if row.value is None else row.value(opts)
                if value is not None:
                    fixed[key] = value
    source = "a spectrum file" if model == "spectrum_file" else f"model {model}"
    for dest, row in _SOURCE_FLAGS.items():
        if given.get(dest) not in (None, row.default) and not fixed.keys() & row.keys:
            raise ConfigError(f"{_flag(dest)} sets no parameter of {source}")
    if entry.grid is None:  # a spectrum file brings its own grid
        for dest, default in _GRID_DEFAULTS.items():
            if given[dest] != default:
                raise ConfigError(f"{_flag(dest)} sets no parameter of {source}")
    return model, fixed


_DIP_COLUMNS = (("param", "param"), ("P_numeric", "p_numeric"), ("P_closed", "p_closed"),
                ("w_antisym", "w_antisym"))
_SHIH_COLUMNS = (("param", "param"), ("P_numeric", "p_numeric"), ("P_exact", "p_closed"),
                 ("P_reduced", "p_reduced"))


def _cmd_scan(args: argparse.Namespace) -> int:
    """Delay scan of the subcommand's model, written as ``args.columns``."""
    model, fixed = _model_fixed(args)
    spec = ScanSpec(
        model=model,
        swept="dz",
        start=args.dz_min,
        stop=args.dz_max,
        n_steps=args.steps,
        fixed=fixed,
        grid_points=args.grid_points,
        grid_span_sigmas=args.grid_span,
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
    model, fixed = _model_fixed(args)
    row = {**model_params(model, fixed), "dz": args.dz}
    state = _delayed_state(model, row, args.grid_points, args.grid_span)
    aliasing = _alias_warnings(model, [row], state.grid)
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
    fileio.write_json(report, args.output)
    return 0


def cmd_wavepacket(args: argparse.Namespace) -> int:
    s = _load_input_state(args)
    # a frequency axis the floats cannot resolve is refused before any matrix is built
    axis = s.grid.frequencies() if args.domain == "frequency" else None
    rank1, sigma, u, v = _leading_singular_pair(s)
    if isinstance(s, _FactoredState):
        s = s.spectrum()
    metadata: dict[str, Any] = {
        "domain": args.domain,
        "rank1_fraction": rank1,
        "warnings": list(s.warnings),
    }
    if args.domain == "frequency":
        axis_label = "omega"
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
        fileio.write_json(payload, args.output)
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
    if args.only is not None:
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
        fileio.write_json({
            "criteria": [dataclasses.asdict(r) for r in results],
            "passed": len(results) - len(failed),
            "total": len(results),
        }, None)
    else:
        for result in results:
            sys.stdout.write(result.summary_line() + "\n")
        sys.stdout.write(f"{len(results) - len(failed)}/{len(results)} criteria passed\n")
    return 0 if not failed else 3


class _Parser(argparse.ArgumentParser):
    """The CLI's parser: a usage error is one ``error: ...`` line, as every
    other error, and a token that starts like a negative number is a value.

    argparse alone reads only ``-1`` and ``-.5`` as negative numbers: it
    would take ``-4e0``, ``-5e-324``, ``-inf`` or a list such as ``-1,8``
    for a flag of its own.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a token this pattern matches at its start for a value
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str) -> NoReturn:
        # an unrecognized token is echoed as given: a line break in it is escaped
        raise ConfigError(message.replace("\n", "\\n"))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: building it costs ~1 ms, and parsing leaves it unchanged
    parser = _Parser(
        prog="biphoton",
        description="Two-photon interference at a lossless beam splitter: "
        "coincidence probabilities, delay scans, wavepacket exports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dip = sub.add_parser("dip-scan", help="delay scan of the Gaussian pair")
    _add_source_flags(dip, only=("sigma", "beta", "center", "c_light", "pump"))
    dip.set_defaults(model="gaussian_pair", columns=_DIP_COLUMNS)

    shih = sub.add_parser("shih-scan", help="delay scan of the two-path model")
    _add_source_flags(shih, only=("sigma", "beta", "center", "dl", "c_light"),
                      required=("beta", "center", "dl"))
    shih.set_defaults(model="shih", columns=_SHIH_COLUMNS)

    for p in (dip, shih):
        _add_common_flags(p)
        p.add_argument("--dz-min", type=float, required=True)
        p.add_argument("--dz-max", type=float, required=True)
        p.add_argument("--steps", type=int, required=True)
        p.add_argument("-o", "--output", required=True, help="output table path")
        p.set_defaults(handler=_cmd_scan)

    transform = sub.add_parser("transform", help="single-shot beam-splitter report")
    _add_common_flags(transform, with_format=False)
    wavepacket = sub.add_parser("wavepacket", help="export |amplitude| matrices")
    _add_common_flags(wavepacket)
    for p in (transform, wavepacket):
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--model", choices=[name for name in MODELS if name != "spectrum_file"])
        source.add_argument("--spectrum-file", help="CSV spectrum file as input state")
        _add_source_flags(p)
        p.add_argument("--dz", type=float, default=0.0, help="relative path delay z1 - z2")

    transform.add_argument("--theta", type=float, default=math.pi / 4.0,
                           help="splitting angle in radians (default: balanced)")
    transform.add_argument("--phi-tau", type=float, default=0.0)
    transform.add_argument("--phi-rho", type=float, default=0.0)
    transform.add_argument("-o", "--output", default=None,
                           help="report path (default: stdout)")
    transform.set_defaults(handler=cmd_transform)

    wavepacket.add_argument("--domain", choices=("frequency", "time"), default="frequency")
    wavepacket.add_argument("-o", "--output", required=True, help="matrix output path")
    wavepacket.set_defaults(handler=cmd_wavepacket)

    p = sub.add_parser("validate", help="run the built-in verification suite")
    p.add_argument("--only", default=None, help="comma-separated criterion numbers")
    p.add_argument("--json", action="store_true",
                   help="print each criterion's result and measurements as one JSON object")
    p.set_defaults(handler=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.handler(args)
    except SystemExit:  # argparse exits only after -h printed its usage text
        return 0
    except (DegenerateSpectrumError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 3
    # usage, configuration and spectrum-file errors are ValueErrors; an
    # OSError is an unreadable input or an unwritable output path
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
