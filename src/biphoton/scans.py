"""Source models and the parameter-scan engine for coincidence-probability curves.

:data:`MODELS` has one entry per source model: the ``fixed`` parameters it
accepts with their defaults (filled in by :func:`model_params`), the grid
they imply, its ``dl = 0`` spectrum without delays and, where they exist,
its ``dl`` row factors, closed form and metadata.  Every source, in scans
and CLI input states alike, is built with the path difference and delays of
its row in one place, :func:`_delayed_state`: a ``dl``, fixed as swept, scales
the rows by the row factor (:func:`~biphoton.models._path_difference`), and
:func:`~biphoton.spectrum.apply_path_delays` takes the path phases into the
factors of a model source (see :mod:`biphoton.models`) or the cells of a file.

A :class:`ScanSpec` names a source model, the swept parameter (``dz`` path
delay or ``dl`` half path difference) and the sweep range.  A scan takes
the model at the swept value 0 once and reduces it once with
:func:`~biphoton.spectrum.exchange_sweep`, whose docstring derives it.  A
model source is reduced from its factors ``x``, ``y`` and pump ``p``,
through ``u = conj(x) y``: its n x n state is never built.  A row scales
port-1 row ``i`` of that base by ``a exp(i tau nu_i) + b exp(-i tau nu_i)``:
a ``dz`` row is ``(1, 0, dz / c)``, a ``dl`` row the model's ``row_factor``.
The factors of all rows go to the reduction's kernel at once, which reads
every row off it in one batched pass.  Every row carries this numeric
value and, where the model has one, its closed form, taken with the
model's metadata from one model per scan.  The kernel gives each row the
same bits in any batch, so identical specs produce bit-identical tables,
and a row has the same bits in every scan of the same source and grid whose
range holds it.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import fileio
from .errors import ConfigError
from .models import (
    MIN_MODULATION_WEIGHT,
    GaussianPairModel,
    ShihModel,
    _bell_state,
    _delta_pump_state,
    _gaussian_pair_state,
    _path_difference,
    _shih_regime,
    delta_pump_row_factor,
    hom_dip_closed,
    shih_exact,
    shih_norm_factor,
    shih_reduced,
    shih_regime_notes,
    shih_row_factor,
)
from .spectrum import (
    _MIN_NORM,
    BiphotonSpectrum,
    FrequencyGrid,
    _FactoredState,
    apply_path_delays,
    exchange_sweep,
    make_grid,
)

SWEEPABLE = ("dz", "dl")

# Largest accepted step count, refused before the sweep values are allocated.
# A row holds ~450 bytes of Python objects and one table line: a 10**5-row
# scan peaks ~45 MB above a 2-row one and takes ~1.5 s (2-core x86), 100
# times the 1,001 rows of the largest documented or checked scan.
MAX_SCAN_STEPS = 10**5

# The default of a required key in a model's ``params``; a key whose absence
# means something (a flat pump, paths not fixed) has the default None.
REQUIRED = ...

# The keys whose values are text, with the types each accepts; the value of
# any other key is a number.
_TEXT_KEYS = {"parity": (str,), "path": (str, os.PathLike)}


def _sigma_grid(row: dict[str, Any], n_points: int, span_mult: float) -> FrequencyGrid:
    return make_grid(row["center"], span_mult * row["sigma"], n_points)


@dataclass(frozen=True)
class _Model:
    """One source model.

    ``params`` maps each ``fixed`` key the model accepts to its default; a
    row is :func:`model_params` of ``fixed`` plus the swept value.
    ``scan_params(row)`` is built once per row and handed to the rest;
    ``base(scan_params, grid)`` is its state at ``dl = 0`` without path delays, in
    factored form where the model has one; with ``grid`` None (a spectrum file) it
    gets no grid and brings its own.  A row that holds ``dl_key``, fixed or swept,
    scales port-1 row i of the base by ``a exp(i tau nu_i) + b exp(-i tau nu_i)``
    with ``(a, b, tau) = row_factor(scan_params, grid, dl)``, down to a squared
    norm ``row_floor``.  ``closed_form(scan_params, dl, dz)`` gives
    ``(p_closed, p_reduced)`` and ``metadata(scan_params, dl)`` the model
    metadata of a row.
    """

    params: dict[str, Any]
    base: Callable[[Any, FrequencyGrid | None], BiphotonSpectrum | _FactoredState]
    grid: Callable[[dict[str, Any], int, float], FrequencyGrid] | None = _sigma_grid
    dl_key: str | None = None
    scan_params: Callable[[dict[str, Any]], Any] = dict
    row_factor: Callable[[Any, FrequencyGrid, float], tuple[complex, complex, float]] | None = None
    row_floor: float = _MIN_NORM**2
    closed_form: Callable[[Any, float, float], tuple[float, float | None]] | None = None
    metadata: Callable[[Any, float], dict[str, Any]] | None = None


def _bell_grid(row: dict[str, Any], n_points: int, span_mult: float) -> FrequencyGrid:
    # Spacing chosen so both tones land exactly on grid cells.
    omega_a, omega_b = row["omega_a"], row["omega_b"]
    center = 0.5 * (omega_a + omega_b)
    half_gap = 0.5 * abs(omega_b - omega_a)
    if half_gap == 0.0:
        raise ConfigError("omega_a and omega_b must differ")
    if not (math.isfinite(span_mult) and span_mult > 0):
        raise ConfigError(f"grid span must be positive and finite, got {span_mult}")
    cells = max(1, round((n_points - 1) / (2.0 * span_mult)))
    spacing = half_gap / cells
    return make_grid(center, spacing * (n_points - 1) / 2.0, n_points)


def _shih_model(row: dict[str, Any]) -> ShihModel:
    """The two-path source of ``row``, built once per row for its base, closed
    forms and row factors, which take ``dl`` from the row; the paths come from
    ``_path_delays``."""
    return ShihModel(row["center"], row["sigma"], row["sigma_p"], c_light=row["c_light"])


def _shih_metadata(m: ShihModel, dl: float) -> dict[str, Any]:
    return {
        "norm_factor_b": shih_norm_factor(m, dl),
        "parity_4dl_over_lambda": math.fmod(4.0 * dl / m.wavelength, 2.0),
        "regime_notes": list(shih_regime_notes(m, dl)),
        **_shih_regime(m, dl),
    }


MODELS: dict[str, _Model] = {
    "gaussian_pair": _Model(
        params={"center": 0.0, "sigma": 1.0, "pump_sigma": None, "c_light": 1.0},
        base=lambda row, grid: _gaussian_pair_state(
            GaussianPairModel(row["center"], row["sigma"], row.get("pump_sigma")), grid
        ),
        closed_form=lambda row, dl, dz: (hom_dip_closed(row["sigma"], dz, row["c_light"]), None),
    ),
    "shih": _Model(
        params={"center": REQUIRED, "sigma": 1.0, "sigma_p": REQUIRED, "delta_l": 0.0,
                "dz": None, "c_light": 1.0},
        base=lambda m, grid: _gaussian_pair_state(
            GaussianPairModel(m.center, m.sigma, m.sigma_p), grid
        ),
        dl_key="delta_l",
        scan_params=_shih_model,
        row_factor=lambda m, grid, dl: shih_row_factor(grid, dl, m.c_light),
        row_floor=MIN_MODULATION_WEIGHT,
        closed_form=lambda m, dl, dz: (shih_exact(m, dz, dl), shih_reduced(m, dz, dl)),
        metadata=_shih_metadata,
    ),
    "delta_pump": _Model(
        params={"center": 0.0, "sigma": 1.0, "dl": 0.0, "parity": "even", "c_light": 1.0},
        base=lambda row, grid: _delta_pump_state(row["sigma"], grid),
        dl_key="dl",
        row_factor=lambda row, grid, dl: delta_pump_row_factor(
            grid, dl, row["parity"], row["c_light"]
        ),
    ),
    "bell": _Model(
        params={"omega_a": REQUIRED, "omega_b": REQUIRED, "c_light": 1.0},
        grid=_bell_grid,
        base=lambda row, grid: _bell_state(row["omega_a"], row["omega_b"], grid),
    ),
    "spectrum_file": _Model(
        params={"path": REQUIRED, "c_light": 1.0},
        base=lambda row, grid: fileio.load_spectrum(row["path"]),
        grid=None,
    ),
}


@dataclass(frozen=True)
class ScanSpec:
    """Declarative description of one scan.

    ``fixed`` holds the model parameters that do not vary along the sweep;
    the ``params`` of each entry of :data:`MODELS` give the keys its model
    accepts, with their defaults.  Its values are stored as
    :func:`model_params` checked them: a float for a number, ``os.fspath``
    for a path.  A fixed key may not name the swept parameter.  Every row gets the numeric value and, where the model has
    one, its closed form; its ``w_antisym`` is the numeric value unless
    ``include_w_antisym`` is False.
    A swept ``dz`` is the relative delay ``z1 - z2`` of every row.  The
    two-path source also takes ``dz`` as a fixed key, the delay of a ``dl``
    sweep, and puts it on its idler (:func:`_path_delays`).  ``start``, ``stop``
    and ``grid_span_sigmas`` follow the number rule of :func:`model_params` and
    are stored as floats; ``n_steps`` and ``grid_points`` as ints.
    """

    model: str
    swept: str
    start: float
    stop: float
    n_steps: int
    fixed: dict[str, Any] = field(default_factory=dict)
    grid_points: int = 257
    grid_span_sigmas: float = 6.0
    include_w_antisym: bool = True

    def __post_init__(self):
        checked = model_params(self.model, self.fixed)
        object.__setattr__(self, "fixed", {key: checked.get(key) for key in self.fixed})
        if self.swept not in SWEEPABLE:
            raise ConfigError(f"swept must be one of {SWEEPABLE}, got {self.swept!r}")
        for name, label in (("n_steps", "steps"), ("grid_points", "grid_points")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{label} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("start", "stop", "grid_span_sigmas"):
            object.__setattr__(self, name, _number(name, getattr(self, name)))
        if self.n_steps < 2:
            raise ConfigError("steps must be >= 2")
        if self.n_steps > MAX_SCAN_STEPS:
            raise ConfigError(f"steps must be <= {MAX_SCAN_STEPS}, got {self.n_steps}")
        if not (self.start < self.stop):
            raise ConfigError("scan range must satisfy start < stop")
        if not math.isfinite(self.stop - self.start):
            raise ConfigError(f"scan range [{self.start}, {self.stop}] must have a finite width")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_steps)


@dataclass(frozen=True)
class ScanRow:
    param: float
    p_numeric: float
    p_closed: float | None = None
    p_reduced: float | None = None
    w_antisym: float | None = None


@dataclass(frozen=True, eq=False)
class ScanResult:
    spec: ScanSpec
    rows: tuple[ScanRow, ...]
    metadata: dict[str, Any]


@dataclass(frozen=True)
class ScanComparison:
    """Deviation statistics between the numeric and closed-form columns."""

    max_abs_dev: float
    argmax_param: float
    rms: float


def _number(name: str, value: Any) -> float:
    """``value`` as a float: a real number, not a bool, within the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} must be a number in the float range") from None


def model_params(model: str, fixed: dict[str, Any]) -> dict[str, Any]:
    """``fixed``, checked against the ``params`` of ``model``, with the defaults
    of the keys it leaves out; a path is stored as ``os.fspath`` of it, any
    other text value as given, any other value as a float, and a key whose
    default is None may be given as None."""
    if not isinstance(model, str) or model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {tuple(MODELS)}")
    if not isinstance(fixed, Mapping):
        raise ConfigError(f"fixed parameters must be a mapping, got {fixed!r}")
    params = MODELS[model].params
    unknown = fixed.keys() - params.keys()
    if unknown:
        raise ConfigError(f"unknown parameter(s) for model {model!r}: {sorted(unknown)}")
    row = {}
    for key, default in params.items():
        value = fixed.get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"model {model!r} requires parameter {key!r}")
        if value is None and default is None:
            continue
        if key in _TEXT_KEYS and not isinstance(value, _TEXT_KEYS[key]):
            types = " or ".join(t.__name__ for t in _TEXT_KEYS[key])
            raise ConfigError(f"{key} must be {types}, got {value!r}")
        row[key] = os.fspath(value) if key in _TEXT_KEYS else _number(key, value)
    return row


def _path_delays(model: str, row: dict[str, Any]) -> tuple[float, float]:
    """Port-1 path ``z1`` and relative delay ``dz = z1 - z2`` of one row.

    ``row`` holds the row's parameters and, for any model, may hold ``dz``.
    The two-path source, the one model whose ``params`` take a fixed ``dz``,
    keeps its signal at ``z1 = 0`` and delays the idler, ``z2 = -dz``; any
    other source carries ``dz`` on port 1, so ``z1 = dz`` and ``z2 = 0``.
    """
    dz = float(row.get("dz", 0.0))
    return (0.0 if "dz" in MODELS[model].params else dz), dz


def _delayed_state(
    model: str, row: dict[str, Any], grid_points: int, grid_span_sigmas: float
) -> BiphotonSpectrum | _FactoredState:
    """State of one row: the model's base scaled by the row factor of its ``dl``
    (:func:`~biphoton.models._path_difference`), with the path delays applied by
    :func:`~biphoton.spectrum.apply_path_delays`; factored where the model is.

    A spectrum file is read once and brings its own grid.
    """
    entry = MODELS[model]
    z1, dz = _path_delays(model, row)
    grid = None if entry.grid is None else entry.grid(row, grid_points, grid_span_sigmas)
    params = entry.scan_params(row)
    # the row factor is checked before the base is built
    factor = entry.row_factor(params, grid, row[entry.dl_key]) if entry.dl_key in row else None
    state = entry.base(params, grid)
    state = state if factor is None else _path_difference(state, factor, entry.row_floor)
    return apply_path_delays(state, z1, z1 - dz, row["c_light"])


def _row(spec: ScanSpec, value: float) -> dict[str, Any]:
    """Parameters of the row at swept ``value``."""
    key = "dz" if spec.swept == "dz" else MODELS[spec.model].dl_key
    if key is None:
        raise ConfigError(f"model {spec.model!r} cannot sweep 'dl'")
    if key in spec.fixed:
        raise ConfigError(f"fixed parameter {key!r} names the swept parameter {spec.swept!r}")
    return {**model_params(spec.model, spec.fixed), key: float(value)}


def _check_row(row: ScanRow) -> None:
    # p_reduced is exempt: the limit form may leave [0, 1] outside its regime,
    # which a scan reports in its metadata (regime_notes and the numbers behind
    # them, sigma_dl_over_c, beta and beta_sigma_dl_over_c) rather than refuse.
    for name in ("p_numeric", "p_closed"):
        p = getattr(row, name)
        if p is None:
            continue
        if not math.isfinite(p) or p < -1e-10 or p > 1.0 + 1e-10:
            raise ArithmeticError(
                f"{name} = {p!r} at param {row.param!r} is not a probability"
            )
    if row.p_reduced is not None and not math.isfinite(row.p_reduced):
        raise ArithmeticError(f"p_reduced is not finite at param {row.param!r}")


def _alias_warnings(model: str, rows: list[dict[str, Any]], grid: FrequencyGrid) -> list[str]:
    """Warning when a path delay of the ``rows`` of ``model`` aliases on ``grid``.

    A sampled spectrum is periodic in the relative delay with period
    ``2 pi c / domega``, ``c`` the ``c_light`` that every row of one scan or
    input state shares, so delays from half that period on alias onto
    shorter ones.  A model with a path difference ``dl`` splits port 1 over
    the delays ``dz +- dl``, so its reach is ``|dz| + |dl|``.
    """
    dl_key = MODELS[model].dl_key
    reach = max(
        abs(_path_delays(model, row)[1]) + (0.0 if dl_key is None else abs(row[dl_key]))
        for row in rows
    )
    what = "relative delay |z1 - z2|" if dl_key is None else "path delay |dz| + |dl|"
    if not math.isfinite(reach):
        raise ConfigError(f"{what} must be finite; |dz| and |dl| add up past the float range")
    period = 2.0 * math.pi * rows[0]["c_light"] / grid.spacing
    if reach < 0.5 * period:
        return []
    return [
        f"{what} up to {reach:g} reaches half the delay period "
        f"2*pi*c/domega = {period:g} of the {grid.n_points}-point grid; the numeric "
        f"curve repeats with that period, so delays past {0.5 * period:g} alias"
    ]


def run_scan(spec: ScanSpec) -> ScanResult:
    """Run the scan: reduce its base spectrum once, then read every row off
    that reduction in one batched pass; the metadata times the two apart.

    The base is the spectrum at the swept value 0, with the path delays of
    that row and without the ``dl`` of a ``dl`` sweep.  Each check raises
    for its first offending row, in this order: the base (its grid, row
    factor, state and path delays), the aliasing reach of the sweep's ends,
    the row factors (a ``dl`` the model rejects, or a delay or path
    difference whose phase is not finite), the reduction (a degenerate
    row), then the closed forms and the probability bound.
    """
    t0 = time.perf_counter()
    entry = MODELS[spec.model]
    row = _row(spec, 0.0)
    base_row = {k: v for k, v in row.items() if k != entry.dl_key} if spec.swept == "dl" else row
    base = _delayed_state(spec.model, base_row, spec.grid_points, spec.grid_span_sigmas)
    kernel = exchange_sweep(base, entry.row_floor)
    grid = base.grid
    ends = [_row(spec, spec.start), _row(spec, spec.stop)]
    warnings = list(base.warnings) + _alias_warnings(spec.model, ends, grid)
    params = entry.scan_params(row)
    t1 = time.perf_counter()

    values = spec.values().tolist()
    if spec.swept == "dl":
        a, b, tau = zip(*(entry.row_factor(params, grid, dl) for dl in values))
        name = "half path difference dl"
    else:
        # the carrier phase exp(i center dz / c) of a delay is global
        a, b, tau = 1.0, 0.0, [dz / row["c_light"] for dz in values]
        name = "relative delay dz"
    # the reduction's phases reach tau (nu_i - nu_j), up to twice the half
    # span, and its phase tables half a block past that
    for value, t in zip(values, tau):
        if not math.isfinite(4.0 * (grid.half_span * t)):
            raise ConfigError(f"{name} = {value!r} must give a finite phase nu*{spec.swept}/c")
    # the balanced coincidence equals the antisymmetric weight
    p_numeric = kernel(a, b, tau).tolist()
    closed_form = entry.closed_form or (lambda params, dl, dz: (None, None))
    dl0, dz0 = row.get(entry.dl_key, 0.0), _path_delays(spec.model, row)[1]
    rows = []
    for value, p in zip(values, p_numeric):
        dl, dz = (value, dz0) if spec.swept == "dl" else (dl0, value)
        closed = closed_form(params, dl, dz)
        rows.append(ScanRow(value, p, *closed, p if spec.include_w_antisym else None))
        _check_row(rows[-1])
    t2 = time.perf_counter()

    metadata: dict[str, Any] = {
        "model": spec.model,
        "swept": spec.swept,
        "grid": {"center": grid.center, "half_span": grid.half_span, "n_points": grid.n_points},
        "truncation_warnings": warnings,
        "prepare_s": t1 - t0,
        "rows_s": t2 - t1,
        "wall_time_s": time.perf_counter() - t0,
    }
    if entry.metadata is not None:
        # a delay leaves the model metadata unchanged; a dl sweep lists it per row
        if spec.swept == "dz":
            metadata.update(entry.metadata(params, row[entry.dl_key]))
        else:
            per_row = [entry.metadata(params, r.param) for r in rows]
            metadata.update({key: [meta[key] for meta in per_row] for key in per_row[0]})
    return ScanResult(spec=spec, rows=tuple(rows), metadata=metadata)


def compare_methods(result: ScanResult) -> ScanComparison:
    """Deviation statistics between ``p_numeric`` and ``p_closed`` columns."""
    devs = []
    for row in result.rows:
        if row.p_closed is None:
            raise ValueError(
                "comparison requires both numeric and closed-form columns in every row"
            )
        devs.append((abs(row.p_numeric - row.p_closed), row.param))
    max_dev, argmax = max(devs, key=lambda pair: pair[0])
    rms = math.sqrt(sum(d * d for d, _ in devs) / len(devs))
    return ScanComparison(max_abs_dev=max_dev, argmax_param=argmax, rms=rms)
