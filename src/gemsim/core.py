"""Physical configuration, pulse constructors and Stark-slope schedules.

Units used throughout the package: time in microseconds, length in mm,
angular frequency in rad/us, Stark slope in rad/(us*mm).  Field and
polarisation amplitudes are dimensionless; all governing equations are
linear so the absolute scale is irrelevant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ConfigError",
    "Grid",
    "StarkProfile",
    "GemConfig",
    "PulseSpec",
    "make_plane_wave_mode",
]


class ConfigError(ValueError):
    """Raised when a configuration violates one of its invariants."""


# Empirical stability bound of the explicit field/polarisation exchange:
# the fastest retained exchange rate is ~ g*N/k_min with k_min = 2*pi/L.
_EXCHANGE_LIMIT = 2.0

# The equations are linear, so an amplitude's scale carries no physics; this
# bound keeps every squared norm the solvers form finite.
_MAX_AMPLITUDE = 1e100


def _log_cosh(x: float) -> float:
    # overflow-safe log(cosh(x))
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


@dataclass(frozen=True)
class Grid:
    """Uniform space-time grid.

    z_min/z_max bound the atomic medium (mm), nz grid points inclusive of
    both faces; the time axis runs from 0 to t_max (us) with nt points.
    """

    z_min: float
    z_max: float
    nz: int
    t_max: float
    nt: int

    def __post_init__(self):
        if not self.z_min < self.z_max:
            raise ConfigError(f"z_min ({self.z_min}) must be < z_max ({self.z_max})")
        if self.nz < 2 or self.nt < 2:
            raise ConfigError("nz and nt must both be >= 2")
        if not self.t_max > 0:
            raise ConfigError("t_max must be positive")

    @property
    def dz(self) -> float:
        return (self.z_max - self.z_min) / (self.nz - 1)

    @property
    def dt(self) -> float:
        return self.t_max / (self.nt - 1)

    @property
    def length(self) -> float:
        return self.z_max - self.z_min

    @property
    def z_axis(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.nz)

    @property
    def t_axis(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.nt)


@dataclass(frozen=True)
class StarkProfile:
    """Time schedule of the linear Stark slope eta(t).

    eta(t) = eta0 * sign(switch_time - t)                 for ramp_tau == 0
    eta(t) = eta0 * tanh((switch_time - t) / ramp_tau)    for ramp_tau  > 0
    eta(t) = 0 inside any freeze interval [t_a, t_b).

    The local detuning is eta(t)*z - delta_offset for t > switch_time
    (the readout frequency correction), eta(t)*z before the switch.
    """

    eta0: float
    switch_time: float
    ramp_tau: float = 0.0
    delta_offset: float = 0.0
    freeze_intervals: tuple = ()

    def __post_init__(self):
        if self.eta0 == 0.0 or not math.isfinite(self.eta0):
            raise ConfigError("eta0 must be nonzero and finite")
        if self.ramp_tau < 0:
            raise ConfigError("ramp_tau must be >= 0 (0 encodes the abrupt step)")
        iv = tuple(tuple(float(x) for x in p) for p in self.freeze_intervals)
        for p in iv:
            if len(p) != 2 or not p[0] < p[1]:
                raise ConfigError(f"freeze interval {p} must be an increasing pair")
        for a, b in zip(iv, iv[1:]):
            if a[1] > b[0]:
                raise ConfigError("freeze intervals must be sorted and disjoint")
        object.__setattr__(self, "freeze_intervals", iv)

    def _base_eval(self, t):
        if self.ramp_tau == 0.0:
            return self.eta0 * np.sign(self.switch_time - t)
        return self.eta0 * np.tanh((self.switch_time - t) / self.ramp_tau)

    def eval(self, t):
        """Slope eta at time t (scalar or array)."""
        out = self._base_eval(np.asarray(t, dtype=float))
        for a, b in self.freeze_intervals:
            out = np.where((np.asarray(t) >= a) & (np.asarray(t) < b), 0.0, out)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def _base_integral(self, t0: float, t1: float) -> float:
        ts = self.switch_time
        if self.ramp_tau == 0.0:
            before = min(t1, ts) - min(t0, ts)
            after = max(t1, ts) - max(t0, ts)
            return self.eta0 * (before - after)
        tau = self.ramp_tau
        return self.eta0 * tau * (_log_cosh((ts - t0) / tau) - _log_cosh((ts - t1) / tau))

    def slope_integral(self, t0: float, t1: float) -> float:
        """Exact integral of eta(t) over [t0, t1], freeze intervals included."""
        total = self._base_integral(t0, t1)
        for a, b in self.freeze_intervals:
            lo, hi = max(t0, a), min(t1, b)
            if lo < hi:
                total -= self._base_integral(lo, hi)
        return total

    def offset_integral(self, t0: float, t1: float) -> float:
        """Integral of the readout offset indicator: delta * |[t0,t1] > switch|."""
        return self.delta_offset * max(0.0, t1 - max(t0, self.switch_time))


@dataclass(frozen=True)
class GemConfig:
    """Two-level gradient-echo medium plus numerical grid.

    beta = g * linear_density / |eta0| is the optical depth per pass;
    the echo energy fraction is (1 - exp(-2*pi*beta))**2.  The grid must
    resolve the polarisation phase (Nyquist guard) and the time step the
    field/polarisation exchange (g*N*L*dt/(2*pi) <= 2).
    """

    g: float
    linear_density: float
    gamma: float
    stark: StarkProfile
    grid: Grid

    def __post_init__(self):
        if not self.g > 0:
            raise ConfigError("g must be positive")
        if not self.linear_density > 0:
            raise ConfigError("linear_density must be positive")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ConfigError("derived optical depth beta must be positive and finite")
        g = self.grid
        need = math.ceil(abs(self.stark.eta0) * g.length * g.t_max / math.pi) + 2
        if g.nz < need:
            raise ConfigError(
                "Nyquist guard violated: nz >= ceil(|eta0|*L*t_max/pi) + 2 requires "
                f"nz >= {need}, got nz = {g.nz} "
                f"(|eta0|={abs(self.stark.eta0):g}, L={g.length:g}, t_max={g.t_max:g})"
            )
        exchange = self.g * self.linear_density * g.length * g.dt / (2.0 * math.pi)
        if exchange > _EXCHANGE_LIMIT:
            raise ConfigError(
                "time step too large for the field/polarisation exchange rate: "
                f"g*N*L*dt/(2*pi) = {exchange:.2f} > {_EXCHANGE_LIMIT}; increase nt"
            )

    @property
    def beta(self) -> float:
        return self.g * self.linear_density / abs(self.stark.eta0)

    def with_beta(self, beta: float) -> "GemConfig":
        """Copy with linear_density set to reach the given optical depth."""
        if not beta > 0:
            raise ConfigError("beta must be positive")
        return replace(self, linear_density=beta * abs(self.stark.eta0) / self.g)


@dataclass(frozen=True)
class PulseSpec:
    """Input field envelope.

    kinds:
      gaussian          amplitude * exp(-((t-center)/width)^2); width is the
                        1/e amplitude half-width.
      modulated         gaussian envelope times (1 + 0.8*cos(mod_freq * t)).
      plane_wave_window amplitude * exp(i*w_n*t)/sqrt(T) on [t1, t2) with
                        w_n = 2*pi*mode_index/T, T = t2 - t1; zero outside.
                        The half-open window keeps the sampled pulse exactly
                        piecewise constant on grids aligned with t1, t2.
    """

    kind: str
    amplitude: complex = 1.0
    center: float = 0.0
    width: float = 0.0
    mod_freq: float = 0.0
    mode_index: int = 0
    window: tuple = ()

    _MOD_DEPTH = 0.8  # fixed contrast of the modulated kind

    def __post_init__(self):
        if self.kind not in ("gaussian", "modulated", "plane_wave_window"):
            raise ConfigError(f"unknown pulse kind {self.kind!r}")
        if self.amplitude == 0:
            raise ConfigError("amplitude must be nonzero")
        if abs(self.amplitude) > _MAX_AMPLITUDE:
            raise ConfigError(f"amplitude must satisfy |amplitude| <= {_MAX_AMPLITUDE:g}")
        if self.kind in ("gaussian", "modulated"):
            if not self.width > 0:
                raise ConfigError("width must be positive")
            if self.kind == "modulated" and not self.mod_freq > 0:
                raise ConfigError("mod_freq must be positive for the modulated kind")
        else:
            if not isinstance(self.mode_index, (int, np.integer)):
                raise ConfigError("mode_index must be an integer")
            if len(self.window) != 2 or not self.window[0] < self.window[1]:
                raise ConfigError("window must be (t1, t2) with t1 < t2")
            object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))

    def evaluate(self, t):
        """Complex amplitude at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            out = self.amplitude * np.exp(-(((t - self.center) / self.width) ** 2))
        elif self.kind == "modulated":
            env = np.exp(-(((t - self.center) / self.width) ** 2))
            out = self.amplitude * env * (1.0 + self._MOD_DEPTH * np.cos(self.mod_freq * t))
        else:
            t1, t2 = self.window
            T = t2 - t1
            w = 2.0 * np.pi * self.mode_index / T
            out = np.where(
                (t >= t1) & (t < t2),
                self.amplitude * np.exp(1j * w * t) / np.sqrt(T),
                0.0,
            )
        return np.asarray(out, dtype=complex)

    def scaled(self, c: complex) -> "PulseSpec":
        return replace(self, amplitude=self.amplitude * c)


def make_plane_wave_mode(n: int, t1: float, t2: float) -> PulseSpec:
    """Plane-wave basis mode u_n(t) = exp(i*2*pi*n*t/T)/sqrt(T) on [t1, t2)."""
    return PulseSpec(kind="plane_wave_window", mode_index=n, window=(t1, t2))
