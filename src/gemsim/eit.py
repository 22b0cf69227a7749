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
(`solver._march`), which owns the field rebuild (every cumulative_simpson
call), the predictor/corrector pass, the rows it hands on and the
finiteness guard.  This module hands it the exact 2x2 propagator of
the (P, S) pair: begin propagates P source-free over the half step,
finish advances P and S in place over the full step, both from a table
with one row per distinct control value.

eit_polariton mixes E and S rows into the dark-state polariton.  It takes
the rows it mixes, so the same function serves a record's rows and each
row a streaming run's march hands on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, Grid, _check_exchange
from .solver import _field_rows, _march, _readonly, _snapshot_rows
from .solver import cumulative_simpson  # noqa: F401  (kept for perfbench/tracing.py)

__all__ = ["EitConfig", "EitRecord", "run_eit", "eit_polariton", "omega_c_schedule"]


@dataclass(frozen=True)
class EitConfig:
    """Lambda-scheme storage medium.

    n_atoms is the total atom number; g and omega_c0 are in units of the
    excited decay; gamma_e (1/us) is that decay and fixes the physical
    time scale; switch_down/switch_up/ramp_tau are in us.  The normalised
    step dtau = dt*gamma_e must resolve the field/polarisation exchange,
    g^2*n_atoms*dtau/(2*pi) <= 2, the bound GemConfig applies, and the
    group delay must be positive and finite.
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
        # the GEM exchange guard with g*N*L -> g^2*n_atoms (z normalised to
        # the cell) and dt -> the normalised step
        _check_exchange(
            self.g * self.g * self.n_atoms * self.grid.dt * self.gamma_e / (2.0 * math.pi),
            "g^2*n_atoms*dtau/(2*pi)")
        # the envelope map of eit_run moves at 1/group_delay
        if not (self.omega_c0 * self.omega_c0 * self.gamma_e > 0.0
                and 0.0 < self.group_delay < math.inf):
            raise ConfigError(
                "derived group delay g^2*n_atoms/(omega_c0^2*gamma_e) must be positive and finite")

    @property
    def group_delay(self) -> float:
        """Full-medium group delay g^2*N/(omega_c0^2*gamma_e) in us."""
        return self.g * self.g * self.n_atoms / (self.omega_c0 * self.omega_c0 * self.gamma_e)


def omega_c_schedule(config: EitConfig, t):
    """Normalized control Rabi frequency at time t (us)."""
    t = np.asarray(t, dtype=float)
    if config.ramp_tau == 0.0:
        down = np.where(t < config.switch_down, 1.0, 0.0)
        up = np.where(t >= config.switch_up, 1.0, 0.0)
    else:
        # an overflowing quotient (tau near the float minimum) is +-inf, and
        # tanh(+-inf) = +-1 is its tau -> 0 limit
        with np.errstate(over="ignore"):
            down = 0.5 * (1.0 - np.tanh((t - config.switch_down) / config.ramp_tau))
            up = 0.5 * (1.0 + np.tanh((t - config.switch_up) / config.ramp_tau))
    return config.omega_c0 * (down + up)


@dataclass(frozen=True)
class EitRecord:
    """Histories of a storage run: the series at every step, and E, P and
    S rows at the stored times in field_times (as in FieldRecord, none
    when the rows went to a consumer)."""

    times: np.ndarray
    input_series: np.ndarray
    output_series: np.ndarray
    field_times: np.ndarray
    e_field: np.ndarray
    polarisation: np.ndarray
    spin_wave: np.ndarray
    config: EitConfig

    @property
    def grid(self) -> Grid:
        return self.config.grid


def _pair_propagator(omega: np.ndarray, span: float):
    """exp(span*M) for M = [[-1, i*w], [i*w, 0]] (normalized units) at each
    control value w: the entries (a11, a12 = a21, a22).  With M = A - 1/2,
    mu = sqrt(1/4 - w^2) is real below w = 1/2, zero at it and imaginary
    above; one complex square root covers the three cases."""
    mu = np.sqrt(0.25 - np.square(omega) + 0j)
    scale = math.exp(-0.5 * span)
    arg = mu * span
    ch = np.cosh(arg)
    # sinh(mu*span)/mu, whose limit at mu = 0 is span
    zero = np.abs(mu) < 1e-300
    sh_over = np.where(zero, span, np.sinh(arg) / np.where(zero, 1.0, mu))
    # expm(A*span) with A = [[-1/2, i w], [i w, 1/2]]
    a11 = scale * (ch - 0.5 * sh_over)
    a12 = scale * (1j * omega * sh_over)
    a22 = scale * (ch + 0.5 * sh_over)
    return a11, a12, a22


def run_eit(
    config: EitConfig,
    pulse,
    *,
    field_stride=None,
    consume=None,
) -> EitRecord:
    """Integrate the probe `pulse` (a PulseSpec) through the storage cycle.

    field_stride and consume as in run_gem, for the E, P and S rows
    (consume(j, e, p, s))."""
    grid = config.grid
    nt = grid.nt
    dt = grid.dt
    dtau = dt * config.gamma_e
    t = grid.t_axis
    keep = _snapshot_rows(nt, field_stride)
    field_times, (e_rows, p_rows, s_rows), consume = _field_rows(t, keep, grid.nz, 3, consume)

    kappa = config.g * config.n_atoms  # coupling per normalized length
    ein = pulse.evaluate(t)
    ein_mid = pulse.evaluate(t[:-1] + 0.5 * dt)
    omega_mid = omega_c_schedule(config, t[:-1] + 0.5 * dt)

    # one table row (h11, h12, w, f11, f12, f22, src_p, src_s) per distinct
    # control value: h and f propagate (P, S) over the half and the full
    # step; the source weights are the (P,P) / (S,P) entries at the midpoint
    # of the span, times its length and i*g (the source varies slowly)
    values, value_index = np.unique(omega_mid, return_inverse=True)
    h = _pair_propagator(values, 0.5 * dtau)
    f = _pair_propagator(values, dtau)
    q11 = _pair_propagator(values, 0.25 * dtau)[0]
    ig = 1j * config.g
    table = np.stack((h[0], h[1], 0.5 * dtau * q11 * ig,
                      *f, dtau * h[0] * ig, dtau * h[1] * ig), axis=1)

    P, S = np.zeros((2, grid.nz), dtype=complex)
    # rot: the source-free half-step propagation of (P, S) into P; tmp: scratch
    rot, tmp = np.empty((2, grid.nz), dtype=complex)

    def begin(n):
        h11, h12, w = table[value_index[n], :3].tolist()
        np.multiply(h11, P, out=rot)
        np.add(rot, np.multiply(h12, S, out=tmp), out=rot)
        return rot, w, 0.5 * w

    def finish(n, src):
        # P <- f11*P + f12*S + src_p*src and S <- f12*P + f22*S + src_s*src,
        # in place; src is spent last
        f11, f12, f22, src_p, src_s = table[value_index[n], 3:].tolist()
        np.multiply(f12, S, out=tmp)
        np.multiply(f22, S, out=S)
        np.add(S, np.multiply(f12, P, out=rot), out=S)
        np.multiply(f11, P, out=P)
        np.add(P, tmp, out=P)
        np.add(P, np.multiply(src_p, src, out=tmp), out=P)
        np.add(S, np.multiply(src_s, src, out=src), out=S)

    out, _ = _march(begin, finish, ein, ein_mid, 1j * kappa, 1.0 / (grid.nz - 1), t, keep,
                    (P, S), consume)

    _readonly(out, e_rows, p_rows, s_rows)
    return EitRecord(
        times=t,
        input_series=ein,
        output_series=out,
        field_times=field_times,
        e_field=e_rows,
        polarisation=p_rows,
        spin_wave=s_rows,
        config=config,
    )


def eit_polariton(config: EitConfig, times: np.ndarray, e_rows: np.ndarray,
                  s_rows: np.ndarray) -> np.ndarray:
    """Dark-state mixture cos(th)*E - sin(th)*sqrt(N)*S of E and S rows at
    the given times (one row at one time, or a stack of rows at an array
    of times), with tan(th)^2 = g^2*N/omega_c^2 and omega_c the control
    schedule of config at those times.  Each row is the same elementwise
    expression whichever rows are taken."""
    gn = config.g * math.sqrt(config.n_atoms)
    theta = np.arctan2(gn, omega_c_schedule(config, times))
    cos_t = np.cos(theta)[..., None]
    sin_t = np.sin(theta)[..., None]
    return cos_t * e_rows - sin_t * math.sqrt(config.n_atoms) * s_rows
