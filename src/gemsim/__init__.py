"""Gradient-echo light-storage simulator and analysis toolkit."""

from .core import (
    ConfigError,
    GemConfig,
    Grid,
    PulseSpec,
    StarkProfile,
    make_plane_wave_mode,
)
from .eit import EitConfig, EitRecord, eit_polariton, run_eit
from .kspace import KSpaceRecord, k_centroid, phi_residual, polariton_norm, to_kspace
from .metrics import (
    FidelityReport,
    echo_peak_time,
    efficiency_analytic,
    efficiency_numeric,
    fidelity,
    find_delta,
    mode_fidelity_sweep,
)
from .solver import FieldRecord, NonFiniteFieldError, run_gem

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Grid",
    "StarkProfile",
    "GemConfig",
    "PulseSpec",
    "make_plane_wave_mode",
    "FieldRecord",
    "NonFiniteFieldError",
    "run_gem",
    "KSpaceRecord",
    "to_kspace",
    "k_centroid",
    "phi_residual",
    "polariton_norm",
    "FidelityReport",
    "echo_peak_time",
    "efficiency_analytic",
    "efficiency_numeric",
    "fidelity",
    "mode_fidelity_sweep",
    "find_delta",
    "EitConfig",
    "EitRecord",
    "run_eit",
    "eit_polariton",
]
