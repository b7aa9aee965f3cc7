"""Parameter-scan engine for coincidence-probability curves.

A :class:`ScanSpec` names a source model, the swept parameter (``dz`` path
delay or ``dl`` half path difference), the sweep range and the evaluation
methods.  A scan builds the model at the swept value 0 once, reduces it once
in O(n^2), and reads each row off that reduction.  A delay only multiplies
the exchange overlap term by term by a difference-frequency phase, so a
``dz`` row costs O(n) (:func:`~biphoton.spectrum.delay_antisymmetric_weight`).
A path difference only scales each port-1 row of the spectrum by a real
factor, so a ``dl`` row costs one real O(n^2) matrix-vector product
(:func:`~biphoton.spectrum.row_factor_antisymmetric_weight`).  Every row is
compared against the model's closed form where one exists.  Each row is
computed on its own from the same inputs, so identical specs produce
bit-identical tables, in any evaluation order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import partial
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
    BiphotonSpectrum,
    FrequencyGrid,
    delay_antisymmetric_weight,
    make_grid,
    row_factor_antisymmetric_weight,
)

MODELS = ("gaussian_pair", "shih", "delta_pump", "bell", "spectrum_file")
SWEEPABLE = ("dz", "dl")
EVALUATIONS = ("numeric", "closed_form")

# Allowed fixed-parameter keys per model; unknown keys are rejected.
_MODEL_KEYS = {
    "gaussian_pair": {"center", "sigma", "pump_sigma", "c_light"},
    "shih": {"center", "sigma", "sigma_p", "delta_l", "z1", "z2", "dz", "c_light"},
    "delta_pump": {"center", "sigma", "dl", "parity", "c_light"},
    "bell": {"omega_a", "omega_b", "c_light"},
    "spectrum_file": {"path", "c_light"},
}

_CLOSED_FORM_MODELS = {"gaussian_pair", "shih"}


@dataclass(frozen=True)
class ScanSpec:
    """Declarative description of one scan.

    ``fixed`` holds the model parameters that do not vary along the sweep;
    allowed keys depend on the model (see ``_MODEL_KEYS``).  ``evaluation``
    defaults to numeric plus closed form when the model has one.
    ``delay_mode`` controls how a swept ``dz`` is applied to models without
    internal paths: ``"signal"`` delays port 1 only (relative delay ``dz``),
    ``"common"`` delays both ports equally (pure global phase for symmetric
    or antisymmetric states).
    """

    model: str
    swept: str
    start: float
    stop: float
    n_steps: int
    fixed: dict[str, Any] = field(default_factory=dict)
    evaluation: tuple[str, ...] | None = None
    grid_points: int = 257
    grid_span_sigmas: float = 6.0
    delay_mode: str = "signal"
    include_w_antisym: bool = True

    def __post_init__(self):
        validate_model_params(self.model, self.fixed)
        if self.swept not in SWEEPABLE:
            raise ConfigError(f"swept must be one of {SWEEPABLE}, got {self.swept!r}")
        if self.n_steps < 2:
            raise ConfigError("steps must be >= 2")
        if not (self.start < self.stop):
            raise ConfigError("scan range must satisfy start < stop")
        if self.delay_mode not in ("signal", "common"):
            raise ConfigError(f"delay_mode must be 'signal' or 'common', got {self.delay_mode!r}")
        if self.evaluation is not None:
            if not self.evaluation:
                raise ConfigError("at least one evaluation method must be selected")
            bad = set(self.evaluation) - set(EVALUATIONS)
            if bad:
                raise ConfigError(f"unknown evaluation method(s): {sorted(bad)}")
            if "closed_form" in self.evaluation and self.model not in _CLOSED_FORM_MODELS:
                raise ConfigError(f"model {self.model!r} has no closed-form evaluation")

    def resolved_evaluation(self) -> tuple[str, ...]:
        if self.evaluation is not None:
            return self.evaluation
        if self.model in _CLOSED_FORM_MODELS:
            return ("numeric", "closed_form")
        return ("numeric",)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.n_steps)


@dataclass(frozen=True)
class ScanRow:
    param: float
    p_numeric: float | None = None
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


def _require(fixed: dict[str, Any], key: str, model: str) -> Any:
    if key not in fixed:
        raise ConfigError(f"model {model!r} requires parameter {key!r}")
    return fixed[key]


def validate_model_params(model: str, fixed: dict[str, Any]) -> None:
    """Reject unknown models and unknown fixed-parameter keys."""
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}; expected one of {MODELS}")
    unknown = set(fixed) - _MODEL_KEYS[model]
    if unknown:
        raise ConfigError(f"unknown parameter(s) for model {model!r}: {sorted(unknown)}")


def _bell_grid(omega_a: float, omega_b: float, n_points: int, span_mult: float) -> FrequencyGrid:
    # Spacing chosen so both tones land exactly on grid cells.
    center = 0.5 * (omega_a + omega_b)
    half_gap = 0.5 * abs(omega_b - omega_a)
    if half_gap == 0.0:
        raise ConfigError("omega_a and omega_b must differ")
    cells = max(1, round((n_points - 1) / (2.0 * span_mult)))
    spacing = half_gap / cells
    return make_grid(center, spacing * (n_points - 1) / 2.0, n_points)


def resolve_grid(
    model: str, fixed: dict[str, Any], grid_points: int = 257, grid_span_sigmas: float = 6.0
) -> FrequencyGrid:
    """Frequency grid implied by a model's fixed parameters."""
    if model == "spectrum_file":
        return fileio.load_spectrum(_require(fixed, "path", model)).grid
    if model == "bell":
        return _bell_grid(
            _require(fixed, "omega_a", model),
            _require(fixed, "omega_b", model),
            grid_points,
            grid_span_sigmas,
        )
    sigma = float(fixed.get("sigma", 1.0))
    center = float(fixed.get("center", 0.0))
    return make_grid(center, grid_span_sigmas * sigma, grid_points)


def _shih_model(fixed: dict[str, Any], swept: str | None = None, value: float = 0.0) -> ShihModel:
    """Two-path model of ``fixed``; a swept ``dz`` or ``dl`` takes ``value``."""
    z1 = float(fixed.get("z1", 0.0))
    dz = value if swept == "dz" else float(fixed.get("dz", 0.0))
    return ShihModel.from_path_difference(
        center=float(_require(fixed, "center", "shih")),
        sigma=float(fixed.get("sigma", 1.0)),
        sigma_p=float(_require(fixed, "sigma_p", "shih")),
        delta_l=value if swept == "dl" else float(fixed.get("delta_l", 0.0)),
        z1=z1,
        z2=z1 - dz if swept else float(fixed.get("z2", z1 - dz)),
        c_light=float(fixed.get("c_light", 1.0)),
    )


def _relative_delay(spec: ScanSpec, value: float) -> float:
    """Relative delay ``z1 - z2`` of one row of a ``dz`` sweep."""
    return 0.0 if spec.model != "shih" and spec.delay_mode == "common" else value


def build_model_spectrum(
    model: str, fixed: dict[str, Any], grid: FrequencyGrid
) -> BiphotonSpectrum:
    """Undelayed model spectrum for ``model`` with parameters ``fixed``.

    The ``shih`` model carries its paths internally (``delta_l``, ``z1``,
    ``z2`` or a relative ``dz``); the other models are built delay-free.
    """
    if model == "gaussian_pair":
        m = GaussianPairModel(
            center=float(fixed.get("center", 0.0)),
            sigma=float(fixed.get("sigma", 1.0)),
            pump_sigma=(None if fixed.get("pump_sigma") is None else float(fixed["pump_sigma"])),
        )
        return gaussian_pair_spectrum(m, grid)
    if model == "delta_pump":
        return delta_pump_spectrum(
            sigma=float(fixed.get("sigma", 1.0)),
            center=float(fixed.get("center", 0.0)),
            dl=float(fixed.get("dl", 0.0)),
            parity=str(fixed.get("parity", "even")),
            grid=grid,
            c_light=float(fixed.get("c_light", 1.0)),
        )
    if model == "bell":
        return bell_antisymmetric_spectrum(
            _require(fixed, "omega_a", "bell"), _require(fixed, "omega_b", "bell"), grid
        )
    if model == "shih":
        return shih_spectrum(_shih_model(fixed), grid)
    if model == "spectrum_file":
        return fileio.load_spectrum(_require(fixed, "path", "spectrum_file"))
    raise ConfigError(f"unknown model {model!r}")


def load_model_spectrum(
    model: str, fixed: dict[str, Any], grid_points: int = 257, grid_span_sigmas: float = 6.0
) -> BiphotonSpectrum:
    """Undelayed model spectrum on the grid its parameters imply.

    A spectrum file is read once and brings its own grid.
    """
    if model == "spectrum_file":
        return fileio.load_spectrum(_require(fixed, "path", model))
    grid = resolve_grid(model, fixed, grid_points, grid_span_sigmas)
    return build_model_spectrum(model, fixed, grid)


def _evaluate_point(
    spec: ScanSpec, point_weight: Callable[[float], float] | None, value: float
) -> ScanRow:
    """One row; ``point_weight`` is the scan's numeric kernel from ``_prepare``."""
    evaluation = spec.resolved_evaluation()

    p_numeric = None
    w_antisym = None
    if "numeric" in evaluation:
        # the balanced coincidence equals the antisymmetric weight
        p_numeric = point_weight(value)
        if spec.include_w_antisym:
            w_antisym = p_numeric

    p_closed = None
    p_reduced = None
    if "closed_form" in evaluation:
        if spec.model == "shih":
            m = _shih_model(spec.fixed, spec.swept, value)
            dz = m.z1 - m.z2
            p_closed, p_reduced = shih_exact(m, dz), shih_reduced(m, dz)
        else:
            effective_dz = value if spec.delay_mode == "signal" else 0.0
            p_closed = hom_dip_closed(
                float(spec.fixed.get("sigma", 1.0)),
                effective_dz,
                float(spec.fixed.get("c_light", 1.0)),
            )

    row = ScanRow(
        param=float(value),
        p_numeric=p_numeric,
        p_closed=p_closed,
        p_reduced=p_reduced,
        w_antisym=w_antisym,
    )
    _check_row(row)
    return row


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
    if spec.swept == "dz":
        what = "relative delay |z1 - z2|"
        reach = max(abs(_relative_delay(spec, v)) for v in (spec.start, spec.stop))
    else:
        what = "path delay |dz| + |dl|"
        reach = max(abs(spec.start), abs(spec.stop)) + abs(float(spec.fixed.get("dz", 0.0)))
    period = 2.0 * math.pi * float(spec.fixed.get("c_light", 1.0)) / grid.spacing
    if reach < 0.5 * period:
        return []
    return [
        f"{what} up to {reach:g} reaches half the delay period "
        f"2*pi*c/domega = {period:g} of the {grid.n_points}-point grid; the numeric "
        f"curve repeats with that period, so delays past {0.5 * period:g} alias"
    ]


def _prepare(
    spec: ScanSpec,
) -> tuple[FrequencyGrid, Callable[[float], float] | None, list[str]]:
    """Grid, numeric kernel and warnings of a scan.

    The kernel maps a swept value to the balanced coincidence of its row,
    read off one reduction of the scan's base spectrum: the spectrum at the
    swept value 0.  It is ``None`` when the scan has no numeric column.
    """
    fixed = spec.fixed
    if "numeric" not in spec.resolved_evaluation():
        grid = resolve_grid(spec.model, fixed, spec.grid_points, spec.grid_span_sigmas)
        return grid, None, []
    if spec.swept == "dl" and spec.model not in ("shih", "delta_pump"):
        raise ConfigError(f"model {spec.model!r} cannot sweep 'dl'")
    c_light = float(fixed.get("c_light", 1.0))
    if spec.model == "shih":
        # a dz base has z2 = z1, whose common phase exp(i (w1 + w2) z1 / c)
        # is exchange-symmetric; a dl base has delta_l = 0
        grid = resolve_grid("shih", fixed, spec.grid_points, spec.grid_span_sigmas)
        base = shih_spectrum(_shih_model(fixed, spec.swept), grid)
    else:
        # a delta-pump dl base is the even-parity spectrum at dl = 0
        at_zero = {"dl": 0.0, "parity": "even"} if spec.swept == "dl" else {}
        base = load_model_spectrum(
            spec.model, {**fixed, **at_zero}, spec.grid_points, spec.grid_span_sigmas
        )

    # a row is kernel(factor(value)): its delay or row factors read off the reduced base
    if spec.swept == "dz":
        kernel = delay_antisymmetric_weight(base, c_light)
        factor = partial(_relative_delay, spec)
    elif spec.model == "shih":
        kernel = row_factor_antisymmetric_weight(base, MIN_MODULATION_WEIGHT)
        factor = lambda value: shih_path_modulation(_shih_model(fixed, "dl", value), base.grid)
    else:
        kernel = row_factor_antisymmetric_weight(base)
        parity = str(fixed.get("parity", "even"))
        factor = partial(delta_pump_modulation, base.grid, parity=parity, c_light=c_light)
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
    if spec.model == "shih":
        models = [_shih_model(spec.fixed, spec.swept, v) for v in spec.values()]
        parities = [math.fmod(4.0 * m.delta_l / m.wavelength, 2.0) for m in models]
        notes = [list(shih_regime_notes(m)) for m in models]
        if spec.swept == "dz":
            metadata["norm_factor_b"] = shih_norm_factor(models[0])
            metadata["parity_4dl_over_lambda"] = parities[0]
            metadata["regime_notes"] = notes[0]
        else:
            metadata["norm_factor_b"] = [shih_norm_factor(m) for m in models]
            metadata["parity_4dl_over_lambda"] = parities
            metadata["regime_notes"] = notes
    return ScanResult(spec=spec, rows=rows, metadata=metadata)


def compare_methods(result: ScanResult) -> ScanComparison:
    """Deviation statistics between ``p_numeric`` and ``p_closed`` columns."""
    devs = []
    for row in result.rows:
        if row.p_numeric is None or row.p_closed is None:
            raise ValueError(
                "comparison requires both numeric and closed-form columns in every row"
            )
        devs.append((abs(row.p_numeric - row.p_closed), row.param))
    max_dev, argmax = max(devs, key=lambda pair: pair[0])
    rms = math.sqrt(sum(d * d for d, _ in devs) / len(devs))
    return ScanComparison(max_abs_dev=max_dev, argmax_param=argmax, rms=rms)
