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


# end-point rows of the opening and closing parabolas, and their weights
_ENDS = np.array([[0, 1, 2], [-1, -2, -3]])
_END_WEIGHTS = np.array([-3.0, 4.0, -1.0]) / 12.0


def cumulative_simpson(f: np.ndarray, dx, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative integral along the last axis (uniform spacing, n >= 3).

    Each sub-interval increment comes from quadratic interpolation; interior
    increments average the two bracketing parabola estimates, giving a
    [-1, 13, 13, -1]/24 stencil; one-sided parabolas close the ends.  With
    pair sums p_i = f_i + f_{i+1} and P = cumsum(p) the stencil sums to

        cum[k] = dx/24 * (12*P[k-1] + f[k-1] - f[k+1]),   1 <= k <= n-2,

    once the opening parabola is folded into p_0 and the closing one into
    p_{n-2}, so a single cumulative sum does the work.  dx may be complex
    (a coupling constant folded into the spacing); the result is written
    into `out` when one is given.
    """
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, dx))
    q = out[..., 1:]
    np.add(f[..., :-1], f[..., 1:], out=q)
    q[..., :: f.shape[-1] - 2] += (f[..., _ENDS] * _END_WEIGHTS).sum(axis=-1)
    np.cumsum(q, axis=-1, out=q)
    q *= 12.0
    q[..., :-1] += f[..., :-2]
    q[..., :-1] -= f[..., 2:]
    q *= dx / 24.0
    out[..., 0] = 0.0
    return out


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

    state holds per-site arrays (copied, then advanced step by step);
    state[0] radiates the field E = ein + coupling * cumint(state[0]).
    advance(n, state) returns the step-n propagators: half(src, weight, out)
    writes into out the midpoint coherence driven by weight*src (the
    corrector passes E + e_mid with weight 0.5, in place), full(src) returns
    the state at the end of the step and may overwrite the arrays it was
    given.  The field, the midpoint field and the corrector source live in
    buffers allocated once.  Returns the output E(z_max, t), the norm
    dz*sum|state[-1]|^2 and the (E, *state) rows at `keep`; raises
    NonFiniteFieldError at the first step where either is not finite.
    """
    nt = times.size
    state = tuple(np.array(s, dtype=complex) for s in state)
    E = np.full(state[0].size, ein[0], dtype=complex)
    e_mid = np.empty_like(E)
    src = np.empty_like(E)
    mag = np.empty(2 * E.size)  # |state[-1]|^2 as squares of its real view
    step = coupling * dz
    out = np.empty(nt, dtype=complex)
    norm = np.empty(nt)
    out[0] = E[-1]
    norm[0] = float(np.sum(np.square(state[-1].view(float), out=mag))) * dz
    keep_set = {int(i): j for j, i in enumerate(keep)}
    rows = [np.empty((len(keep), E.size), dtype=complex) for _ in (E, *state)]
    for arr, row in zip(rows, (E, *state)):
        arr[0] = row

    for n in range(nt - 1):
        half, full = advance(n, state)
        half(E, 1.0, src)
        cumulative_simpson(src, step, out=e_mid)
        e_mid += ein_mid[n]
        np.add(E, e_mid, out=src)
        half(src, 0.5, src)
        cumulative_simpson(src, step, out=e_mid)
        e_mid += ein_mid[n]
        state = full(e_mid)
        cumulative_simpson(state[0], step, out=E)
        E += ein[n + 1]

        out[n + 1] = E[-1]
        norm[n + 1] = float(np.sum(np.square(state[-1].view(float), out=mag))) * dz
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

    # per-step slope and offset integrals over the half and the full step
    integrals = np.fromiter(
        ((stark.slope_integral(a, m), stark.offset_integral(a, m),
          stark.slope_integral(a, b), stark.offset_integral(a, b))
         for a, m, b in zip(t[:-1], t[:-1] + 0.5 * dt, t[1:])),
        dtype=np.dtype((float, 4)), count=nt - 1)
    i_half, _, i_full, _ = integrals.T

    # gauge phase at sample and midpoint times
    s = carrier / stark.eta0
    z_eff = z + s
    phi = np.zeros(nt)
    if carrier != 0.0:
        np.cumsum(s * i_full, out=phi[1:])
    phi_mid = phi[:-1] + s * i_half

    ein_true = pulse.evaluate(t)
    ein = ein_true * np.exp(-1j * phi)
    ein_mid = pulse.evaluate(t[:-1] + 0.5 * dt) * np.exp(-1j * phi_mid)

    ig = 1j * g
    half_damp = 0.25 * gamma * dt
    full_damp = 0.5 * gamma * dt
    cache = {}
    rot_alpha = np.empty(z.size, dtype=complex)
    scratch = np.empty(z.size, dtype=complex)

    def advance(n, state):
        # exact phase rotation (and decay) over the half and full step,
        # Filon weights (times i*g) for the i*g*E source
        (alpha,) = state
        key = tuple(integrals[n].tolist())
        ops = cache.get(key)
        if ops is None:
            ie, de, i_f, d_f = key
            th_e = z_eff * ie - de
            th_f = z_eff * i_f - d_f
            ops = (
                np.exp(-1j * th_e - half_damp),
                np.exp(-1j * th_f - full_damp),
                ig * _filon_weight(th_e, half_damp, 0.5 * dt),
                ig * _filon_weight(th_f, full_damp, dt),
            )
            if len(cache) < 64:
                cache[key] = ops
        rot_half, rot_full, w_half, w_full = ops
        np.multiply(rot_half, alpha, out=rot_alpha)

        def half(src, weight, out):
            np.multiply(w_half, src, out=out)
            if weight != 1.0:
                out *= weight
            out += rot_alpha

        def full(src):
            np.multiply(rot_full, alpha, out=alpha)
            np.add(alpha, np.multiply(w_full, src, out=scratch), out=alpha)
            return state

        return half, full

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
