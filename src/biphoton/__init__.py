"""Two-photon spectral-wavepacket interference at a lossless beam splitter.

Build a discretized joint spectral amplitude (from a model or a file), send
it through the splitter, and study coalescence (dip) and anti-coalescence
(peak, trapping) behavior numerically and against closed forms.
"""

from .beamsplitter import (
    BeamSplitterParams,
    OutputDecomposition,
    bs_inverse,
    bs_matrix,
    coincidence_probability,
    creation_substitution,
    transform,
    transform_decomposition,
    trapping_fidelity,
)
from .errors import BiphotonError, ConfigError, DegenerateSpectrumError, SpectrumFileError
from .fileio import load_spectrum, save_spectrum
from .models import (
    GaussianPairModel,
    ShihModel,
    bell_antisymmetric_spectrum,
    delta_pump_spectrum,
    gaussian_pair_spectrum,
    hom_dip_closed,
    shih_exact,
    shih_norm_factor,
    shih_reduced,
    shih_spectrum,
)
from .scans import (
    ScanComparison,
    ScanResult,
    ScanRow,
    ScanSpec,
    build_model_spectrum,
    compare_methods,
    evaluate_scan_point,
    resolve_grid,
    run_scan,
)
from .spectrum import (
    BiphotonSpectrum,
    FrequencyGrid,
    SymmetryDecomposition,
    TimeWavepacket,
    antisymmetric_weight,
    apply_path_delays,
    delay_antisymmetric_weight,
    exchange_overlap,
    from_function,
    make_grid,
    row_factor_antisymmetric_weight,
    separability_rank1_fraction,
    swap,
    symmetry_decompose,
    time_domain,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSplitterParams",
    "BiphotonError",
    "BiphotonSpectrum",
    "ConfigError",
    "DegenerateSpectrumError",
    "FrequencyGrid",
    "GaussianPairModel",
    "OutputDecomposition",
    "ScanComparison",
    "ScanResult",
    "ScanRow",
    "ScanSpec",
    "ShihModel",
    "SpectrumFileError",
    "SymmetryDecomposition",
    "TimeWavepacket",
    "antisymmetric_weight",
    "apply_path_delays",
    "bell_antisymmetric_spectrum",
    "bs_inverse",
    "bs_matrix",
    "build_model_spectrum",
    "coincidence_probability",
    "compare_methods",
    "creation_substitution",
    "delay_antisymmetric_weight",
    "delta_pump_spectrum",
    "evaluate_scan_point",
    "exchange_overlap",
    "from_function",
    "gaussian_pair_spectrum",
    "hom_dip_closed",
    "load_spectrum",
    "make_grid",
    "resolve_grid",
    "row_factor_antisymmetric_weight",
    "run_scan",
    "save_spectrum",
    "separability_rank1_fraction",
    "shih_exact",
    "shih_norm_factor",
    "shih_reduced",
    "shih_spectrum",
    "swap",
    "symmetry_decompose",
    "time_domain",
    "transform",
    "transform_decomposition",
    "trapping_fidelity",
]
