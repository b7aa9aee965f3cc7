"""Source models and the parameter-scan engine for coincidence-probability curves.

:data:`MODELS` has one entry per source model: the ``fixed`` parameters it
accepts, the grid they imply, its delay-free spectrum and, where they exist,
its ``dl`` row factors, closed form and metadata.  Every source, in scans and
CLI input states alike, gets its path delays from
:func:`~biphoton.spectrum.apply_path_delays`, applied in one place.

A :class:`ScanSpec` names a source model, the swept parameter (``dz`` path
delay or ``dl`` half path difference) and the sweep range.  A scan builds
the model at the swept value 0 once, reduces it once in O(n^2), and reads
each row off that reduction.  A delay only multiplies the exchange overlap
term by term by a difference-frequency phase, so a ``dz`` row costs O(n)
(:func:`~biphoton.spectrum.delay_antisymmetric_weight`).  A path difference
only scales each port-1 row of the spectrum by a real factor, so a ``dl``
row costs one real O(n^2) matrix-vector product
(:func:`~biphoton.spectrum.row_factor_antisymmetric_weight`).  Every row
carries this numeric value and, where the model has one, its closed form.
Each row is computed on its own from the same inputs, so identical specs
produce bit-identical tables, in any evaluation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import fileio
from .errors import ConfigError
from .models import (
    MIN_MODULATION_WEIGHT,
    GaussianPairModel,
    ShihModel,
    bell_antisymmetric_spectrum,
    delta_pump_modulation,
    delta_pump_spectrum,
    gaussian_pair_spectrum,
    hom_dip_closed,
    shih_exact,
    shih_norm_factor,
    shih_path_modulation,
    shih_reduced,
    shih_regime_notes,
    shih_spectrum,
)
from .spectrum import (
    _MIN_NORM,
    BiphotonSpectrum,
    FrequencyGrid,
    apply_path_delays,
    delay_antisymmetric_weight,
    make_grid,
    row_factor_antisymmetric_weight,
)

SWEEPABLE = ("dz", "dl")

# Values of the optional parameters that ``fixed`` leaves out.
_DEFAULTS = {"center": 0.0, "sigma": 1.0, "c_light": 1.0, "delta_l": 0.0, "dl": 0.0}


def _num(fixed: dict[str, Any], key: str) -> float:
    return float(fixed[key] if key in fixed else _DEFAULTS[key])


def _sigma_grid(fixed: dict[str, Any], n_points: int, span_mult: float) -> FrequencyGrid:
    return make_grid(_num(fixed, "center"), span_mult * _num(fixed, "sigma"), n_points)


@dataclass(frozen=True)
class _Model:
    """One source model.

    ``base(fixed, grid)`` is its delay-free spectrum; with ``grid`` None (a
    spectrum file) it gets no grid and brings its own.  A ``dl`` row sets
    ``dl_key`` and scales port-1 row i of the base at ``dl_key = 0``
    (updated by ``dl_base``) by ``row_factor(row, grid)[i]``, down to a
    squared norm ``row_floor``.  ``closed_form(row, dz)`` gives
    ``(p_closed, p_reduced)``; ``metadata(row)`` is reported per row.
    """

    keys: frozenset[str]
    base: Callable[[dict[str, Any], FrequencyGrid | None], BiphotonSpectrum]
    grid: Callable[[dict[str, Any], int, float], FrequencyGrid] | None = _sigma_grid
    required: tuple[str, ...] = ()
    dl_key: str | None = None
    dl_base: dict[str, Any] = field(default_factory=dict)
    row_factor: Callable[[dict[str, Any], FrequencyGrid], np.ndarray] | None = None
    row_floor: float = _MIN_NORM**2
    closed_form: Callable[[dict[str, Any], float], tuple[float, float | None]] | None = None
    metadata: Callable[[dict[str, Any]], dict[str, Any]] | None = None


def _bell_grid(fixed: dict[str, Any], n_points: int, span_mult: float) -> FrequencyGrid:
    # Spacing chosen so both tones land exactly on grid cells.
    omega_a, omega_b = fixed["omega_a"], fixed["omega_b"]
    center = 0.5 * (omega_a + omega_b)
    half_gap = 0.5 * abs(omega_b - omega_a)
    if half_gap == 0.0:
        raise ConfigError("omega_a and omega_b must differ")
    if not (math.isfinite(span_mult) and span_mult > 0):
        raise ConfigError(f"grid span must be positive and finite, got {span_mult}")
    cells = max(1, round((n_points - 1) / (2.0 * span_mult)))
    spacing = half_gap / cells
    return make_grid(center, spacing * (n_points - 1) / 2.0, n_points)


def _gaussian_pair(fixed: dict[str, Any], grid: FrequencyGrid) -> BiphotonSpectrum:
    pump = fixed.get("pump_sigma")
    pump_sigma = None if pump is None else float(pump)
    m = GaussianPairModel(_num(fixed, "center"), _num(fixed, "sigma"), pump_sigma)
    return gaussian_pair_spectrum(m, grid)


def _shih_model(fixed: dict[str, Any]) -> ShihModel:
    """Delay-free two-path model; its paths enter through ``_path_delays``."""
    return ShihModel.from_path_difference(
        center=_num(fixed, "center"),
        sigma=_num(fixed, "sigma"),
        sigma_p=_num(fixed, "sigma_p"),
        delta_l=_num(fixed, "delta_l"),
        c_light=_num(fixed, "c_light"),
    )


def _shih_closed_form(fixed: dict[str, Any], dz: float) -> tuple[float, float]:
    m = _shih_model(fixed)
    return shih_exact(m, dz), shih_reduced(m, dz)


def _shih_metadata(fixed: dict[str, Any]) -> dict[str, Any]:
    m = _shih_model(fixed)
    return {
        "norm_factor_b": shih_norm_factor(m),
        "parity_4dl_over_lambda": math.fmod(4.0 * m.delta_l / m.wavelength, 2.0),
        "regime_notes": list(shih_regime_notes(m)),
    }


def _delta_pump(fixed: dict[str, Any], grid: FrequencyGrid) -> BiphotonSpectrum:
    sigma, center, dl = (_num(fixed, key) for key in ("sigma", "center", "dl"))
    parity = fixed.get("parity", "even")
    return delta_pump_spectrum(sigma, center, dl, parity, grid, _num(fixed, "c_light"))


MODELS: dict[str, _Model] = {
    "gaussian_pair": _Model(
        keys=frozenset({"center", "sigma", "pump_sigma", "c_light"}),
        base=_gaussian_pair,
        closed_form=lambda fixed, dz: (
            hom_dip_closed(_num(fixed, "sigma"), dz, _num(fixed, "c_light")),
            None,
        ),
    ),
    "shih": _Model(
        keys=frozenset({"center", "sigma", "sigma_p", "delta_l", "z1", "z2", "dz", "c_light"}),
        required=("center", "sigma_p"),
        base=lambda fixed, grid: shih_spectrum(_shih_model(fixed), grid),
        dl_key="delta_l",
        row_factor=lambda fixed, grid: shih_path_modulation(_shih_model(fixed), grid),
        row_floor=MIN_MODULATION_WEIGHT,
        closed_form=_shih_closed_form,
        metadata=_shih_metadata,
    ),
    "delta_pump": _Model(
        keys=frozenset({"center", "sigma", "dl", "parity", "c_light"}),
        base=_delta_pump,
        dl_key="dl",
        # odd-parity rows are sin(nu dl / c) times the even dl = 0 envelope
        dl_base={"parity": "even"},
        row_factor=lambda fixed, grid: delta_pump_modulation(
            grid, _num(fixed, "dl"), fixed.get("parity", "even"), _num(fixed, "c_light")
        ),
    ),
    "bell": _Model(
        keys=frozenset({"omega_a", "omega_b", "c_light"}),
        required=("omega_a", "omega_b"),
        grid=_bell_grid,
        base=lambda fixed, grid: bell_antisymmetric_spectrum(
            fixed["omega_a"], fixed["omega_b"], grid
        ),
    ),
    "spectrum_file": _Model(
        keys=frozenset({"path", "c_light"}),
        required=("path",),
        base=lambda fixed, grid: fileio.load_spectrum(fixed["path"]),
        grid=None,
    ),
}


@dataclass(frozen=True)
class ScanSpec:
    """Declarative description of one scan.

    ``fixed`` holds the model parameters that do not vary along the sweep;
    each entry of :data:`MODELS` lists the keys its model allows and
    requires.  A fixed key may not name the swept parameter.  Every row
    gets the numeric value and, where the model has one, its closed form.
    A swept ``dz`` delays port 1 of a model without its own paths; a
    two-path row takes its relative delay ``z1 - z2`` from its own paths,
    where ``z2`` is ``fixed["z2"]`` or ``z1 - dz``.
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
        validate_model_params(self.model, self.fixed)
        if self.swept not in SWEEPABLE:
            raise ConfigError(f"swept must be one of {SWEEPABLE}, got {self.swept!r}")
        if self.n_steps < 2:
            raise ConfigError("steps must be >= 2")
        if not (self.start < self.stop):
            raise ConfigError("scan range must satisfy start < stop")
        if not math.isfinite(self.stop - self.start):
            raise ConfigError(f"scan range [{self.start}, {self.stop}] must have a finite width")

    def resolved_evaluation(self) -> tuple[str, ...]:
        """Columns every row carries: numeric, plus closed form where the model has one."""
        closed_form = () if MODELS[self.model].closed_form is None else ("closed_form",)
        return ("numeric", *closed_form)

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


def validate_model_params(model: str, fixed: dict[str, Any]) -> None:
    """Reject unknown models, unknown fixed-parameter keys and missing required ones."""
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {tuple(MODELS)}")
    unknown = set(fixed) - MODELS[model].keys
    if unknown:
        raise ConfigError(f"unknown parameter(s) for model {model!r}: {sorted(unknown)}")
    for key in MODELS[model].required:
        if key not in fixed:
            raise ConfigError(f"model {model!r} requires parameter {key!r}")


def resolve_grid(
    model: str, fixed: dict[str, Any], grid_points: int = 257, grid_span_sigmas: float = 6.0
) -> FrequencyGrid:
    """Frequency grid implied by a model's fixed parameters."""
    validate_model_params(model, fixed)
    entry = MODELS[model]
    if entry.grid is None:
        return entry.base(fixed, None).grid
    return entry.grid(fixed, grid_points, grid_span_sigmas)


def build_model_spectrum(
    model: str, fixed: dict[str, Any], grid: FrequencyGrid
) -> BiphotonSpectrum:
    """Delay-free model spectrum for ``model`` with parameters ``fixed``.

    Path delays, the two-path model's ``z1``, ``z2`` and ``dz`` included,
    are not applied; :func:`~biphoton.spectrum.apply_path_delays` adds them.
    A spectrum file brings its own grid.
    """
    validate_model_params(model, fixed)
    return MODELS[model].base(fixed, grid)


def _path_delays(model: str, row: dict[str, Any]) -> tuple[float, float]:
    """Port-1 path ``z1`` and relative delay ``dz = z1 - z2`` of one row.

    ``row`` holds the row's parameters and, for any model, may hold ``dz``.
    A model with its own paths (one that accepts ``z2``) has
    ``z2 = row["z2"]`` or ``z1 - dz``; any other model carries ``dz`` on
    port 1, so ``z1 = dz`` and ``z2 = 0``.
    """
    dz = float(row.get("dz", 0.0))
    if "z2" not in MODELS[model].keys:
        return dz, dz
    if "z2" in row and "dz" in row:
        raise ConfigError("give the two-path model either z2 or dz, not both")
    z1 = float(row.get("z1", 0.0))
    return z1, (z1 - float(row["z2"]) if "z2" in row else dz)


def _delayed_spectrum(
    model: str, row: dict[str, Any], grid_points: int, grid_span_sigmas: float
) -> BiphotonSpectrum:
    """Spectrum of one row's parameters with the row's path delays applied.

    A spectrum file is read once and brings its own grid.
    """
    entry = MODELS[model]
    z1, dz = _path_delays(model, row)
    grid = None if entry.grid is None else entry.grid(row, grid_points, grid_span_sigmas)
    return apply_path_delays(entry.base(row, grid), z1, z1 - dz, _num(row, "c_light"))


def _row(spec: ScanSpec, value: float) -> dict[str, Any]:
    """Parameters of the row at swept ``value``."""
    key = "dz" if spec.swept == "dz" else MODELS[spec.model].dl_key
    if key is None:
        raise ConfigError(f"model {spec.model!r} cannot sweep 'dl'")
    if key in spec.fixed:
        raise ConfigError(f"fixed parameter {key!r} names the swept parameter {spec.swept!r}")
    return {**spec.fixed, key: value}


def _evaluate_point(
    spec: ScanSpec, point_weight: Callable[[float], float], value: float
) -> ScanRow:
    """One row; ``point_weight`` is the scan's numeric kernel from ``_prepare``."""
    # the balanced coincidence equals the antisymmetric weight
    p_numeric = point_weight(value)
    w_antisym = p_numeric if spec.include_w_antisym else None
    p_closed = p_reduced = None
    closed_form = MODELS[spec.model].closed_form
    if closed_form is not None:
        row = _row(spec, value)
        p_closed, p_reduced = closed_form(row, _path_delays(spec.model, row)[1])
    result = ScanRow(float(value), p_numeric, p_closed, p_reduced, w_antisym)
    _check_row(result)
    return result


def _check_row(row: ScanRow) -> None:
    # p_reduced is exempt: the limit form may leave [0, 1] outside its
    # regime, which is advisory rather than an error.
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


def _alias_warnings(spec: ScanSpec, grid: FrequencyGrid) -> list[str]:
    # A sampled spectrum is periodic in the relative delay with period
    # 2 pi c / domega, so delays from half that period on alias onto
    # shorter ones.  A dl row splits port 1 over the delays dz +- dl.
    def relative_delay(value: float) -> float:
        return abs(_path_delays(spec.model, _row(spec, value))[1])

    if spec.swept == "dz":
        what = "relative delay |z1 - z2|"
        reach = max(relative_delay(spec.start), relative_delay(spec.stop))
    else:
        what = "path delay |dz| + |dl|"
        reach = max(abs(spec.start), abs(spec.stop)) + relative_delay(0.0)
    period = 2.0 * math.pi * _num(spec.fixed, "c_light") / grid.spacing
    if reach < 0.5 * period:
        return []
    return [
        f"{what} up to {reach:g} reaches half the delay period "
        f"2*pi*c/domega = {period:g} of the {grid.n_points}-point grid; the numeric "
        f"curve repeats with that period, so delays past {0.5 * period:g} alias"
    ]


def _prepare(spec: ScanSpec) -> tuple[FrequencyGrid, Callable[[float], float], list[str]]:
    """Grid, numeric kernel and warnings of a scan.

    The kernel maps a swept value to the balanced coincidence of its row,
    read off one reduction of the scan's base spectrum: the spectrum at the
    swept value 0, with the path delays of that row.
    """
    entry = MODELS[spec.model]
    base_row = _row(spec, 0.0)
    if spec.swept == "dl":
        base_row.update(entry.dl_base)
    base = _delayed_spectrum(spec.model, base_row, spec.grid_points, spec.grid_span_sigmas)

    # a row is kernel(factor(value)): its delay or row factors read off the reduced base
    if spec.swept == "dz":
        kernel = delay_antisymmetric_weight(base, _num(spec.fixed, "c_light"))

        def factor(value: float) -> float:
            return _path_delays(spec.model, _row(spec, value))[1]
    else:
        kernel = row_factor_antisymmetric_weight(base, entry.row_floor)

        def factor(value: float) -> np.ndarray:
            return entry.row_factor(_row(spec, value), base.grid)

    warnings = list(base.warnings) + _alias_warnings(spec, base.grid)
    return base.grid, lambda value: kernel(factor(value)), warnings


def evaluate_scan_point(spec: ScanSpec, value: float) -> ScanRow:
    """Evaluate a single scan point in isolation.

    ``run_scan`` is equivalent to mapping this function over
    ``spec.values()``: both reduce the scan's base spectrum (here for the
    one point, once per scan in ``run_scan``) and read the row off that
    reduction with the same kernel, so the rows agree bit for bit.  Points
    are pure and independent; callers may evaluate them in any order or
    concurrently.
    """
    _, point_weight, _ = _prepare(spec)
    return _evaluate_point(spec, point_weight, value)


def run_scan(spec: ScanSpec) -> ScanResult:
    """Run the scan; the metadata times the base reduction and the rows apart."""
    t0 = time.perf_counter()
    grid, point_weight, warnings = _prepare(spec)
    t1 = time.perf_counter()
    rows = tuple(_evaluate_point(spec, point_weight, value) for value in spec.values())
    t2 = time.perf_counter()

    metadata: dict[str, Any] = {
        "model": spec.model,
        "swept": spec.swept,
        "grid": {
            "center": grid.center,
            "half_span": grid.half_span,
            "n_points": grid.n_points,
        },
        "truncation_warnings": warnings,
        "prepare_s": t1 - t0,
        "rows_s": t2 - t1,
        "wall_time_s": time.perf_counter() - t0,
    }
    row_metadata = MODELS[spec.model].metadata
    if row_metadata is not None:
        # a delay leaves the model metadata unchanged; a dl sweep lists it per row
        per_row = [row_metadata(_row(spec, value)) for value in spec.values()]
        if spec.swept == "dz":
            metadata.update(per_row[0])
        else:
            metadata.update({key: [meta[key] for meta in per_row] for key in per_row[0]})
    return ScanResult(spec=spec, rows=rows, metadata=metadata)


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
