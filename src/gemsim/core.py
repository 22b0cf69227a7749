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


def _short_int(n: int) -> str:
    """n, or past 15 digits its first 7 and its length, for a one-line message."""
    digits = str(abs(n))
    return str(n) if len(digits) <= 15 else f"{'-' * (n < 0)}{digits[:7]}...({len(digits)} digits)"


def _check_exchange(rate: float, formula: str) -> None:
    """ConfigError unless the exchange per step, rate = formula, is within the limit."""
    if not rate <= _EXCHANGE_LIMIT:
        raise ConfigError("time step too large for the field/polarisation exchange rate: "
                          f"{formula} = {rate:.3g} > {_EXCHANGE_LIMIT}; increase nt")


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
        if max(self.nz, self.nt) > np.iinfo(np.intp).max // 16:
            raise ConfigError("nz and nt must each fit a complex numpy array")
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
        # a quotient past the float range (tau near the float minimum) is
        # +-inf, and tanh(+-inf) = +-1 is its tau -> 0 limit
        with np.errstate(over="ignore"):
            return self.eta0 * np.tanh((self.switch_time - t) / self.ramp_tau)

    def eval(self, t):
        """Slope eta at time t (scalar or array)."""
        out = self._base_eval(np.asarray(t, dtype=float))
        for a, b in self.freeze_intervals:
            out = np.where((np.asarray(t) >= a) & (np.asarray(t) < b), 0.0, out)
        if np.ndim(t) == 0:
            return float(out)
        return out

    def _base_integral(self, t0: float, span: float) -> float:
        ts = self.switch_time
        if self.ramp_tau == 0.0:
            if t0 + span <= ts:
                return self.eta0 * span
            if t0 >= ts:
                return -self.eta0 * span
            return self.eta0 * ((ts - t0) - (t0 + span - ts))
        tau = self.ramp_tau
        a, b = (ts - t0) / tau, (ts - t0 - span) / tau
        if math.isinf(a) or math.isinf(b):
            # tau below the float range of the step: its tau -> 0 limit
            return self.eta0 * (abs(ts - t0) - abs(ts - t0 - span))
        if abs(a) < 1e-4 and abs(b) < 1e-4:
            # log cosh x = x^2/2 - x^4/12 + O(x^6): the difference below would
            # be eta0*tau times rounding noise (NaN for tau near the float max)
            return self.eta0 * span * 0.5 * (a + b) * (1.0 - (a * a + b * b) / 6.0)
        return self.eta0 * tau * (_log_cosh(a) - _log_cosh(b))

    def slope_integral(self, t0: float, span: float) -> float:
        """Exact integral of eta(t) over [t0, t0 + span], freeze intervals
        included.  On a plateau it depends on span alone (+-eta0*span off an
        abrupt switch, exactly 0.0 inside a freeze), so equal steps there
        give bit-equal values wherever they start."""
        t1 = t0 + span
        total = self._base_integral(t0, span)
        for a, b in self.freeze_intervals:
            if a <= t0 and t1 <= b:
                return 0.0
            lo, hi = max(t0, a), min(t1, b)
            if lo < hi:
                total -= self._base_integral(lo, hi - lo)
        return total

    def offset_integral(self, t0: float, span: float) -> float:
        """Integral of the readout offset indicator over [t0, t0 + span]:
        delta times the part after the switch (delta*span wholly after it)."""
        ts = self.switch_time
        return self.delta_offset * (span if t0 >= ts else max(0.0, t0 + span - ts))


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
        span = abs(self.stark.eta0) * g.length * g.t_max / math.pi
        if not math.isfinite(span):  # no grid resolves a phase past the float range
            raise ConfigError(
                "Nyquist guard violated: |eta0|*L*t_max/pi exceeds the float range "
                f"(|eta0|={abs(self.stark.eta0):g}, L={g.length:g}, t_max={g.t_max:g})"
            )
        need = math.ceil(span) + 2
        if g.nz < need:
            raise ConfigError(
                "Nyquist guard violated: nz >= ceil(|eta0|*L*t_max/pi) + 2 requires "
                f"nz >= {_short_int(need)}, got nz = {g.nz} "
                f"(|eta0|={abs(self.stark.eta0):g}, L={g.length:g}, t_max={g.t_max:g})"
            )
        _check_exchange(self.g * self.linear_density * g.length * g.dt / (2.0 * math.pi),
                        "g*N*L*dt/(2*pi)")

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
            t1, t2 = float(self.window[0]), float(self.window[1])
            try:
                phase = 2.0 * math.pi * self.mode_index / (t2 - t1) * max(abs(t1), abs(t2))
            except OverflowError:  # an index beyond the float range
                phase = math.inf
            if not math.isfinite(phase):
                raise ConfigError(
                    "mode_index: the phase 2*pi*mode_index*t/(t2 - t1) exceeds the float "
                    "range on the window")
            object.__setattr__(self, "window", (t1, t2))

    def evaluate(self, t):
        """Complex amplitude at time(s) t."""
        t = np.asarray(t, dtype=float)
        if self.kind in ("gaussian", "modulated"):
            # exp(-inf) = 0 where the exponent overflows; cos(inf) = NaN, rejected at load
            with np.errstate(over="ignore", invalid="ignore"):
                out = self.amplitude * np.exp(-(((t - self.center) / self.width) ** 2))
                if self.kind == "modulated":
                    out = out * (1.0 + self._MOD_DEPTH * np.cos(self.mod_freq * t))
        else:
            t1, t2 = self.window
            T = t2 - t1
            w = 2.0 * np.pi * self.mode_index / T
            # the phase is taken on the window only, where load keeps it finite
            inside = (t >= t1) & (t < t2)
            out = np.zeros(t.shape, dtype=complex)
            out[inside] = self.amplitude * np.exp(1j * w * t[inside]) / np.sqrt(T)
        return np.asarray(out, dtype=complex)


def make_plane_wave_mode(n: int, t1: float, t2: float) -> PulseSpec:
    """Plane-wave basis mode u_n(t) = exp(i*2*pi*n*t/T)/sqrt(T) on [t1, t2)."""
    return PulseSpec(kind="plane_wave_window", mode_index=n, window=(t1, t2))
