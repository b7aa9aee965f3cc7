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
    gaussian_pair_spectrum,
    hom_dip_closed,
    shih_exact,
    shih_norm_factor,
    shih_reduced,
)
from .scans import (
    ScanComparison,
    ScanResult,
    ScanRow,
    ScanSpec,
    compare_methods,
    run_scan,
)
from .spectrum import (
    BiphotonSpectrum,
    FrequencyGrid,
    TimeWavepacket,
    apply_path_delays,
    exchange_weights,
    make_grid,
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
    "TimeWavepacket",
    "apply_path_delays",
    "bell_antisymmetric_spectrum",
    "bs_inverse",
    "bs_matrix",
    "coincidence_probability",
    "compare_methods",
    "creation_substitution",
    "exchange_weights",
    "gaussian_pair_spectrum",
    "hom_dip_closed",
    "load_spectrum",
    "make_grid",
    "run_scan",
    "save_spectrum",
    "shih_exact",
    "shih_norm_factor",
    "shih_reduced",
    "time_domain",
    "transform",
    "transform_decomposition",
    "trapping_fidelity",
]
