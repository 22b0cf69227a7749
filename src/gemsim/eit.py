"""Minimal three-level EIT storage solver for the temporal-to-spatial
mapping contrast with the gradient-echo scheme.

Linearized weak-probe equations in the co-moving frame,

    dE/dz = i*(g*N/L) * P
    dP/dt = -gamma_e*P + i*g*E + i*Omega_c(t)*S
    dS/dt = i*Omega_c(t)*P,

integrated in control-normalized units: g and omega_c0 are dimensionless
multiples of the excited-state decay, gamma_e (in 1/us) maps normalized
time onto the microsecond axis, and z is normalized to the medium length.
The control schedule is a tanh switch-off/switch-on pair at the
configured times.

Time stepping uses the exponential-midpoint loop of the GEM solver
(`solver._march`): the field rebuild, predictor/corrector pass, snapshot
rows and finiteness guard are shared, and this module supplies the exact
2x2 propagator of the (P, S) pair over each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, Grid
from .solver import _march, _readonly, _snapshot_rows
from .solver import cumulative_simpson  # noqa: F401  (kept for perfbench/tracing.py)

__all__ = ["EitConfig", "EitRecord", "run_eit", "eit_polariton", "omega_c_schedule"]


@dataclass(frozen=True)
class EitConfig:
    """Lambda-scheme storage medium.

    n_atoms is the total atom number; g and omega_c0 are in units of the
    excited decay; gamma_e (1/us) is that decay and fixes the physical
    time scale; switch_down/switch_up/ramp_tau are in us.
    """

    n_atoms: float
    g: float
    omega_c0: float
    switch_down: float
    switch_up: float
    ramp_tau: float
    grid: Grid
    gamma_e: float = 1.0

    def __post_init__(self):
        if not self.n_atoms > 0:
            raise ConfigError("n_atoms must be positive")
        if self.g < 0 or self.omega_c0 < 0 or self.ramp_tau < 0 or self.gamma_e < 0:
            raise ConfigError("rates must be non-negative")
        if not self.switch_down < self.switch_up:
            raise ConfigError("switch_down must precede switch_up")
        if self.grid.nz < 3:
            raise ConfigError("nz must be >= 3 for the field quadrature")

    @property
    def group_delay(self) -> float:
        """Full-medium group delay g^2*N/(omega_c0^2*gamma_e) in us."""
        return self.g**2 * self.n_atoms / (self.omega_c0**2 * self.gamma_e)


def omega_c_schedule(config: EitConfig, t):
    """Normalized control Rabi frequency at time t (us)."""
    t = np.asarray(t, dtype=float)
    if config.ramp_tau == 0.0:
        down = np.where(t < config.switch_down, 1.0, 0.0)
        up = np.where(t >= config.switch_up, 1.0, 0.0)
    else:
        down = 0.5 * (1.0 - np.tanh((t - config.switch_down) / config.ramp_tau))
        up = 0.5 * (1.0 + np.tanh((t - config.switch_up) / config.ramp_tau))
    return config.omega_c0 * (down + up)


@dataclass(frozen=True)
class EitRecord:
    """Histories of a storage run (same snapshot layout as FieldRecord)."""

    grid: Grid
    times: np.ndarray
    input_series: np.ndarray
    output_series: np.ndarray
    omega_c_series: np.ndarray
    field_times: np.ndarray
    e_field: np.ndarray
    polarisation: np.ndarray
    spin_wave: np.ndarray
    config: EitConfig


def _pair_propagator(omega: float, gamma_norm: float, span: float):
    """exp(span*M) for M = [[-gamma, i*w], [i*w, 0]] (normalized units)."""
    half = 0.5 * gamma_norm
    mu = complex(math.sqrt(abs(half**2 - omega**2)))
    if half**2 < omega**2:
        mu = 1j * math.sqrt(omega**2 - half**2)
    scale = np.exp(-half * span)
    if abs(mu) < 1e-300:
        ch, sh_over = 1.0, span
    else:
        ch = np.cosh(mu * span)
        sh_over = np.sinh(mu * span) / mu
    # expm(A*span) with A = [[-half, i w],[i w, half]]
    a11 = scale * (ch - half * sh_over)
    a12 = scale * (1j * omega * sh_over)
    a21 = a12
    a22 = scale * (ch + half * sh_over)
    return a11, a12, a21, a22


def run_eit(
    config: EitConfig,
    pulse,
    *,
    field_stride: Optional[int] = None,
) -> EitRecord:
    """Integrate the probe `pulse` (a PulseSpec) through the storage cycle."""
    grid = config.grid
    nt = grid.nt
    dt = grid.dt
    dtau = dt * config.gamma_e
    t = grid.t_axis

    kappa = config.g * config.n_atoms  # coupling per normalized length
    ein = pulse.evaluate(t)
    ein_mid = pulse.evaluate(t[:-1] + 0.5 * dt)
    omega_mid = omega_c_schedule(config, t[:-1] + 0.5 * dt)
    omega_series = omega_c_schedule(config, t)
    ig = 1j * config.g

    def coefficients(w):
        h11, h12, h21, _ = _pair_propagator(w, 1.0, 0.5 * dtau)
        f11, f12, f21, f22 = _pair_propagator(w, 1.0, dtau)
        # source weights: the (P,P) / (S,P) propagator entries at the
        # midpoint of the half / full step (the source varies slowly)
        q11 = _pair_propagator(w, 1.0, 0.25 * dtau)[0]
        return (h11, h12, 0.5 * dtau * q11 * ig,
                f11, f12, f21, f22, dtau * h11 * ig, dtau * h21 * ig)

    # the step coefficients depend on the control value alone: one table row
    # per distinct value, filled row by row (a list of tuples would leave
    # thousands of small objects on the heap)
    values, value_index = np.unique(omega_mid, return_inverse=True)
    table = np.empty((values.size, 9), dtype=complex)
    for row, w in zip(table, values.tolist()):
        row[:] = coefficients(w)

    def advance(n, state):
        P, S = state
        h11, h12, src_half, f11, f12, f21, f22, src_p, src_s = table[value_index[n]].tolist()
        rot = h11 * P + h12 * S

        def half(src, weight, out):
            np.multiply(src, weight * src_half, out=out)
            out += rot

        def full(src):
            return (f11 * P + f12 * S + src_p * src,
                    f21 * P + f22 * S + src_s * src)

        return half, full

    keep = _snapshot_rows(nt, field_stride)
    zeros = np.zeros(grid.nz, dtype=complex)
    out, _, (e_rows, p_rows, s_rows) = _march(advance, ein, ein_mid, 1j * kappa,
                                               1.0 / (grid.nz - 1), t, keep, (zeros, zeros))

    _readonly(out, e_rows, p_rows, s_rows)
    return EitRecord(
        grid=grid,
        times=t,
        input_series=ein,
        output_series=out,
        omega_c_series=omega_series,
        field_times=t[keep],
        e_field=e_rows,
        polarisation=p_rows,
        spin_wave=s_rows,
        config=config,
    )


def eit_polariton(record: EitRecord, omega_c_series: Optional[np.ndarray] = None) -> np.ndarray:
    """Dark-state mixture cos(th)*E - sin(th)*sqrt(N)*S at the stored times,
    with tan(th)^2 = g^2*N/omega_c^2."""
    cfg = record.config
    if omega_c_series is None:
        omega_c_series = omega_c_schedule(cfg, record.field_times)
    if omega_c_series.shape[0] != record.field_times.shape[0]:
        raise ValueError("omega_c series must match the stored field times")
    gn = cfg.g * math.sqrt(cfg.n_atoms)
    theta = np.arctan2(gn, omega_c_series)
    cos_t = np.cos(theta)[:, None]
    sin_t = np.sin(theta)[:, None]
    return cos_t * record.e_field - sin_t * math.sqrt(cfg.n_atoms) * record.spin_wave
