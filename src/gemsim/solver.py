"""Time integrator for the two-level gradient-echo medium.

The coupled equations (co-moving frame)

    d alpha/dt = -(gamma/2 + i*(eta(t)*z - delta)) * alpha + i*g*E
    dE/dz      =  i * N * alpha,   E(z_min, t) = E_in(t)

are advanced with an exponential midpoint step: the stiff local phase
rotation (and decay) is applied through its exact per-step integral, the
i*g*E source is integrated with oscillation-aware (Filon) weights, and the
field is rebuilt each half step by a cumulative Simpson quadrature in z.
One predictor/corrector pass makes the midpoint field self-consistent.

The time loop (`_march`) is shared with the EIT solver in `eit.py`; each
solver supplies only its local propagator over one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GemConfig, Grid, PulseSpec

__all__ = ["FieldRecord", "NonFiniteFieldError", "run_gem", "output_energy", "cumulative_simpson"]


class NonFiniteFieldError(RuntimeError):
    """Non-finite field or polarisation values appeared during a run."""

    def __init__(self, time_index: int, time: float):
        self.time_index = time_index
        self.time = time
        super().__init__(
            f"non-finite values at time index {time_index} (t = {time:.6g} us)"
        )


def cumulative_simpson(f: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral along the last axis (uniform spacing).

    Each sub-interval increment comes from quadratic interpolation; interior
    increments average the two bracketing parabola estimates, giving a
    [-1, 13, 13, -1]/24 stencil; one-sided parabolas close the ends.
    """
    inc = np.empty_like(f)
    inc[..., 0] = 0.0
    inc[..., 1] = dx * (5.0 * f[..., 0] + 8.0 * f[..., 1] - f[..., 2]) / 12.0
    inc[..., 2:-1] = (
        dx
        * (-f[..., :-3] + 13.0 * f[..., 1:-2] + 13.0 * f[..., 2:-1] - f[..., 3:])
        / 24.0
    )
    inc[..., -1] = dx * (5.0 * f[..., -1] + 8.0 * f[..., -2] - f[..., -3]) / 12.0
    return np.cumsum(inc, axis=-1)


@dataclass(frozen=True)
class FieldRecord:
    """Space-time history of a run.

    input_series/output_series/alpha_norm_series are kept at every step;
    e_field and polarisation hold rows at the strided times in field_times
    (a sparse set when the run was made with store_fields=False).  The discrete Maxwell relation
    E(z,t) = input_series(t) + i*N*cumint(alpha) holds row by row.
    """

    grid: Grid
    times: np.ndarray
    input_series: np.ndarray
    output_series: np.ndarray
    alpha_norm_series: np.ndarray
    field_times: np.ndarray
    e_field: np.ndarray
    polarisation: np.ndarray
    linear_density: float
    g: float
    gamma: float
    switch_time: float

    def echo_peak_time(self) -> float:
        """Time of max |output| after the switch (parabolic refinement)."""
        t = self.times
        mask = t > self.switch_time
        if not np.any(mask):
            raise ValueError("no samples after switch_time")
        mag = np.abs(self.output_series) * mask
        i = int(np.argmax(mag))
        if 0 < i < len(t) - 1:
            cm, c0, cp = mag[i - 1], mag[i], mag[i + 1]
            den = cm - 2.0 * c0 + cp
            if den < 0:
                return float(t[i] + 0.5 * (cm - cp) / den * self.grid.dt)
        return float(t[i])


def _filon_weight(theta: np.ndarray, damp: float, span: float) -> np.ndarray:
    """integral_0^span exp(mu*(span-s)) ds with mu*span = -i*theta - damp."""
    x = -1j * theta - damp
    small = np.abs(x) < 1e-8
    xs = np.where(small, 1.0, x)
    w = np.where(small, 1.0 + x / 2.0 + x * x / 6.0, np.expm1(xs) / xs)
    return span * w


def _snapshot_rows(nt: int, store_fields: bool, field_stride: Optional[int]) -> np.ndarray:
    """Time indices of the stored rows, last step included."""
    if field_stride is None:
        field_stride = max(1, nt // 512) if store_fields else max(1, nt // 16)
    keep = np.arange(0, nt, field_stride)
    if keep[-1] != nt - 1:
        keep = np.append(keep, nt - 1)
    return keep


def _readonly(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


def _march(advance, ein, ein_mid, coupling, dz, times, keep, state):
    """Exponential-midpoint time loop shared by the GEM and EIT solvers.

    state holds per-site arrays; state[0] radiates the field E = ein +
    coupling * cumint(state[0]).  advance(n, state) returns the step-n
    propagators: half(src, weight) is the midpoint coherence driven by
    weight*src (the corrector passes E + e_mid with weight 0.5), full(src)
    the state at the end of the step.  Returns the output E(z_max, t), the
    norm dz*sum|state[-1]|^2 and the (E, *state) rows at `keep`; raises
    NonFiniteFieldError at the first step where either is not finite.
    """
    nt = times.size
    E = np.full(state[0].size, ein[0], dtype=complex)
    out = np.empty(nt, dtype=complex)
    norm = np.empty(nt)
    out[0] = E[-1]
    norm[0] = float(np.sum(np.abs(state[-1]) ** 2)) * dz
    keep_set = {int(i): j for j, i in enumerate(keep)}
    rows = [np.empty((len(keep), E.size), dtype=complex) for _ in (E, *state)]
    for arr, row in zip(rows, (E, *state)):
        arr[0] = row

    for n in range(nt - 1):
        half, full = advance(n, state)
        e_mid = ein_mid[n] + coupling * cumulative_simpson(half(E, 1.0), dz)
        e_mid = ein_mid[n] + coupling * cumulative_simpson(half(E + e_mid, 0.5), dz)
        state = full(e_mid)
        E = ein[n + 1] + coupling * cumulative_simpson(state[0], dz)

        out[n + 1] = E[-1]
        norm[n + 1] = float(np.sum(np.abs(state[-1]) ** 2)) * dz
        if not np.isfinite(norm[n + 1]) or not np.isfinite(out[n + 1]):
            raise NonFiniteFieldError(n + 1, times[n + 1])
        j = keep_set.get(n + 1)
        if j is not None:
            for arr, row in zip(rows, (E, *state)):
                arr[j] = row
    return out, norm, rows


def run_gem(
    config: GemConfig,
    pulse: PulseSpec,
    *,
    store_fields: bool = True,
    field_stride: Optional[int] = None,
    carrier: float = 0.0,
) -> FieldRecord:
    """Integrate the medium response to `pulse` and return the full record.

    carrier: optional demodulation frequency (rad/us).  The run is done in
    the gauge alpha -> alpha*exp(-i*Phi(t)), Phi(t) = (carrier/eta0) *
    int_0^t eta, which turns a plane-wave input at `carrier` into a DC
    envelope while keeping the physical medium window; recorded series and
    field rows are transformed back, so the record is gauge-free.  Exact
    for any slope schedule.
    """
    grid = config.grid
    stark = config.stark
    nt = grid.nt
    dz, dt = grid.dz, grid.dt
    z = grid.z_axis
    t = grid.t_axis
    g, dens, gamma = config.g, config.linear_density, config.gamma

    # gauge phase at sample and midpoint times
    s = carrier / stark.eta0
    z_eff = z + s
    if carrier != 0.0:
        phi = np.empty(nt)
        phi_mid = np.empty(nt - 1)
        phi[0] = 0.0
        for n in range(nt - 1):
            phi_mid[n] = phi[n] + s * stark.slope_integral(t[n], t[n] + 0.5 * dt)
            phi[n + 1] = phi[n] + s * stark.slope_integral(t[n], t[n + 1])
    else:
        phi = np.zeros(nt)
        phi_mid = np.zeros(nt - 1)

    ein_true = pulse.evaluate(t)
    ein = ein_true * np.exp(-1j * phi)
    ein_mid = pulse.evaluate(t[:-1] + 0.5 * dt) * np.exp(-1j * phi_mid)

    ig = 1j * g
    half_damp = 0.25 * gamma * dt
    full_damp = 0.5 * gamma * dt
    cache = {}

    def advance(n, state):
        # exact phase rotation (and decay) over the half and full step,
        # Filon weights for the i*g*E source
        (alpha,) = state
        t0 = t[n]
        t1 = t[n + 1]
        tm = t0 + 0.5 * dt
        ie = stark.slope_integral(t0, tm)
        de = stark.offset_integral(t0, tm)
        i_f = stark.slope_integral(t0, t1)
        d_f = stark.offset_integral(t0, t1)
        key = (ie, de, i_f, d_f)
        ops = cache.get(key)
        if ops is None:
            th_e = z_eff * ie - de
            th_f = z_eff * i_f - d_f
            ops = (
                np.exp(-1j * th_e - half_damp),
                np.exp(-1j * th_f - full_damp),
                _filon_weight(th_e, half_damp, 0.5 * dt),
                _filon_weight(th_f, full_damp, dt),
            )
            if len(cache) < 64:
                cache[key] = ops
        rot_half, rot_full, w_half, w_full = ops
        return (lambda src, weight: rot_half * alpha + (weight * ig) * (w_half * src),
                lambda src: (rot_full * alpha + ig * (w_full * src),))

    keep = _snapshot_rows(nt, store_fields, field_stride)
    alpha0 = np.zeros(z.size, dtype=complex)
    out, anorm, (e_rows, a_rows) = _march(advance, ein, ein_mid, 1j * dens, dz, t, keep, (alpha0,))

    if carrier != 0.0:
        out = out * np.exp(1j * phi)
        gauge_rows = np.exp(1j * phi[keep])
        e_rows = e_rows * gauge_rows[:, None]
        a_rows = a_rows * gauge_rows[:, None]

    _readonly(out, anorm, e_rows, a_rows, ein_true)
    return FieldRecord(
        grid=grid,
        times=t,
        input_series=ein_true,
        output_series=out,
        alpha_norm_series=anorm,
        field_times=t[keep],
        e_field=e_rows,
        polarisation=a_rows,
        linear_density=dens,
        g=g,
        gamma=gamma,
        switch_time=stark.switch_time,
    )


def output_energy(record: FieldRecord, window) -> float:
    """Trapezoidal integral of |output|^2 over the given [t_a, t_b] window."""
    t_a, t_b = window
    if not (0.0 <= t_a < t_b <= record.grid.t_max):
        raise ValueError(f"window {window} must be a nonempty interval in [0, t_max]")
    m = (record.times >= t_a) & (record.times <= t_b)
    if np.count_nonzero(m) < 2:
        raise ValueError(f"window {window} contains fewer than two samples")
    return float(np.trapezoid(np.abs(record.output_series[m]) ** 2, dx=record.grid.dt))
