"""Gradient-echo light-storage simulator and analysis toolkit."""

from .core import (
    ConfigError,
    GemConfig,
    Grid,
    PulseSpec,
    StarkProfile,
    count_modes,
    make_plane_wave_mode,
)
from .eit import EitConfig, EitRecord, eit_polariton, run_eit
from .kspace import KSpaceRecord, k_centroid, phi_residual, polariton_norm, to_kspace
from .metrics import (
    FidelityReport,
    efficiency_analytic,
    efficiency_numeric,
    fidelity,
    find_delta,
    mode_fidelity_sweep,
)
from .solver import FieldRecord, NonFiniteFieldError, output_energy, run_gem

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "Grid",
    "StarkProfile",
    "GemConfig",
    "PulseSpec",
    "make_plane_wave_mode",
    "count_modes",
    "FieldRecord",
    "NonFiniteFieldError",
    "run_gem",
    "output_energy",
    "KSpaceRecord",
    "to_kspace",
    "k_centroid",
    "phi_residual",
    "polariton_norm",
    "FidelityReport",
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
