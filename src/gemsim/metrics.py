"""Efficiency, recall fidelity, optimal delay/offset search, mode sweeps.

The fidelity of a run is the peak correlation of the output with the
time-reversed input,

    F = max_tau | int conj(E_out(tau - t)) E_in(t) dt | / N_ph,

with N_ph = int |E_in|^2 dt.  The modulus removes the arbitrary global
phase; the delay scan is restricted to an echo window so prompt
(unstored) transmission cannot masquerade as recall.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.signal import fftconvolve

from .core import ConfigError, GemConfig, make_plane_wave_mode
from .solver import FieldRecord, run_gem

__all__ = [
    "FidelityReport",
    "SweepRow",
    "DeltaSearchResult",
    "check_efficiency_windows",
    "check_mode_run",
    "echo_peak_time",
    "efficiency_analytic",
    "efficiency_numeric",
    "fidelity",
    "mode_fidelity_sweep",
    "find_delta",
    "shifted_output",
    "window_energy",
]


# golden-section stopping width of find_delta, relative to the scanned span
_DELTA_REL_TOL = 1e-3


@dataclass(frozen=True)
class FidelityReport:
    """Recall metrics for one input pulse."""

    sigma: float
    fidelity: float
    shape: float
    tau: float
    n_ph: float


@dataclass(frozen=True)
class SweepRow:
    beta: float
    mode_n: int
    sigma: float
    fidelity: float
    shape: float
    tau_us: float
    delta: float


@dataclass(frozen=True)
class DeltaSearchResult:
    delta: float
    fidelity: float
    fidelity_at_zero: float
    improved: bool


def efficiency_analytic(beta: float) -> float:
    """Echo energy fraction (1 - exp(-2*pi*beta))**2 at optical depth beta."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    return float((1.0 - np.exp(-2.0 * np.pi * beta)) ** 2)


def check_efficiency_windows(input_window, echo_window) -> None:
    """Raise ConfigError unless both windows are nonempty and disjoint."""
    a0, a1 = input_window
    b0, b1 = echo_window
    if not (a0 < a1 and b0 < b1):
        raise ConfigError("windows must be nonempty")
    if a1 > b0 and b1 > a0:
        raise ConfigError("input and echo windows must be disjoint")


def window_energy(times: np.ndarray, series: np.ndarray, window, dt: float) -> float:
    """Trapezoidal integral of |series|^2 over the samples in [t_a, t_b]."""
    m = (times >= window[0]) & (times <= window[1])
    return float(np.trapezoid(np.abs(series[m]) ** 2, dx=dt))


def efficiency_numeric(record, input_window, echo_window) -> float:
    """Echo energy / input energy, both by trapezoidal quadrature, of a
    FieldRecord or an EitRecord."""
    check_efficiency_windows(input_window, echo_window)
    t = record.times
    dt = record.grid.dt
    e_in = window_energy(t, record.input_series, input_window, dt)
    if e_in <= 0.0:
        raise ValueError("input window contains no energy")
    return window_energy(t, record.output_series, echo_window, dt) / e_in


def _edge_weights(series: np.ndarray) -> np.ndarray:
    """Trapezoid-consistent weights: half weight on the first and last
    nonzero samples, so windowed inputs with grid-aligned jumps integrate
    to second order; smooth pulses are unaffected."""
    w = np.ones(series.size)
    idx = np.nonzero(np.abs(series) > 0.0)[0]
    if idx.size >= 2:
        w[idx[0]] = 0.5
        w[idx[-1]] = 0.5
    return w


def _peak_abs(ac: np.ndarray, dt: float):
    i = int(np.argmax(ac))
    if 0 < i < ac.size - 1:
        cm, c0, cp = ac[i - 1], ac[i], ac[i + 1]
        den = cm - 2.0 * c0 + cp
        if den < 0.0:
            d = 0.5 * (cm - cp) / den
            return c0 - 0.25 * (cm - cp) * d, (i + d) * dt
    return ac[i], i * dt


def echo_peak_time(record: FieldRecord) -> float:
    """Time of max |output| after the switch (parabolic refinement)."""
    after = record.times > record.switch_time
    if not np.any(after):
        raise ValueError("no samples after switch_time")
    return float(_peak_abs(np.abs(record.output_series) * after, record.grid.dt)[1])


def fidelity(
    e_in: np.ndarray,
    e_out: np.ndarray,
    dt: float,
    sigma: float,
    *,
    echo_window=None,
) -> FidelityReport:
    """Correlation fidelity of an output series against the input series.

    Both series share the grid t_j = j*dt.  echo_window restricts the
    output samples entering the correlation; a readout frequency offset
    is applied to the output beforehand (see shifted_output).
    """
    if e_in.shape != e_out.shape:
        raise ValueError("series must share one time grid")
    t = np.arange(e_in.size) * dt
    eo = np.asarray(e_out, dtype=complex)
    if echo_window is not None:
        w0, w1 = echo_window
        eo = np.where((t >= w0) & (t <= w1), eo, 0.0)
    w = _edge_weights(e_in)
    n_ph = float(np.sum(np.abs(e_in) ** 2 * w) * dt)
    if n_ph <= 0.0:
        raise ValueError("input series carries no energy")
    corr = fftconvolve(np.conj(eo), e_in * w, mode="full") * dt
    peak, tau = _peak_abs(np.abs(corr), dt)
    if peak == 0.0:
        raise ValueError("correlation vanishes at every delay")
    f = float(peak) / n_ph
    shape = f / np.sqrt(sigma) if sigma > 0.0 else float("nan")
    return FidelityReport(
        sigma=float(sigma),
        fidelity=f,
        shape=float(shape),
        tau=float(tau),
        n_ph=n_ph,
    )


def shifted_output(record: FieldRecord, delta: float) -> np.ndarray:
    """Output series of the same run had the readout offset been delta.

    Applying a uniform offset -delta after the switch is a gauge change
    alpha -> alpha*exp(-i*delta*(t - ts)) of the zero-offset run (no input
    light arrives after the switch in a storage experiment), so the
    corrected output is obtained exactly by this phase factor.
    """
    t = record.times
    ts = record.switch_time
    return record.output_series * np.exp(1j * delta * np.clip(t - ts, 0.0, None))


def check_mode_run(config: GemConfig, interval, modes: Sequence[int]) -> None:
    """Raise ConfigError unless plane-wave modes on `interval` can be stored
    and recalled: the window must end by the switch time and each mode's
    frequency 2*pi*n/T must lie inside the half band |eta0|*L/2."""
    t1, t2 = interval
    if not t2 > t1:
        raise ConfigError("interval must satisfy t2 > t1")
    if t2 > config.stark.switch_time:
        raise ConfigError("interval must end before the switch time")
    band = abs(config.stark.eta0) * config.grid.length / 2.0
    for n in modes:
        if abs(2.0 * np.pi * n / (t2 - t1)) > band:
            raise ConfigError(f"mode {n} lies outside the medium bandwidth")


def _mode_run(config: GemConfig, n: int, interval):
    """Carrier-gauge run of plane-wave mode n on `interval`: the record (its
    field rows at the first and last step only), its echo window
    (switch_time, t_max) and its efficiency."""
    t1, t2 = interval
    pulse = make_plane_wave_mode(n, t1, t2)
    omega = 2.0 * np.pi * n / (t2 - t1)
    rec = run_gem(config, pulse, field_stride=config.grid.nt - 1, carrier=omega)
    echo_window = (config.stark.switch_time, config.grid.t_max)
    sigma = efficiency_numeric(rec, (0.0, config.stark.switch_time), echo_window)
    return rec, echo_window, sigma


def _mode_report(config: GemConfig, n: int, interval, delta: float) -> FidelityReport:
    """Recall of plane-wave mode n on `interval`, read out with offset delta
    and scored over the echo window (switch_time, t_max)."""
    rec, echo_window, sigma = _mode_run(config, n, interval)
    out = shifted_output(rec, delta) if delta != 0.0 else rec.output_series
    return fidelity(rec.input_series, out, rec.grid.dt, sigma, echo_window=echo_window)


def _sweep_task(args):
    config, beta, n, interval, delta = args
    rep = _mode_report(config.with_beta(beta), n, interval, delta)
    return SweepRow(
        beta=beta,
        mode_n=n,
        sigma=rep.sigma,
        fidelity=rep.fidelity,
        shape=rep.shape,
        tau_us=rep.tau,
        delta=delta,
    )


def default_workers() -> int:
    env = os.environ.get("GEM_SIM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def mode_fidelity_sweep(
    config_template: GemConfig,
    interval,
    betas: Sequence[float],
    mode_indices: Sequence[int],
    *,
    delta: str | float = 0.0,
    workers: Optional[int] = None,
) -> list[SweepRow]:
    """One run per (beta, mode): ordered rows of sigma, F, F^r, tau, delta.

    delta = "auto" searches the readout offset once per beta on the n = 0
    probe mode and applies it to every mode of that beta (the correction
    is a mode-independent frequency shift); a float applies a fixed offset
    and 0.0 leaves the readout uncorrected.
    """
    check_mode_run(config_template, interval, mode_indices)
    if any(b <= 0 for b in betas):
        raise ConfigError("betas must be positive")

    deltas = {}
    for beta in betas:
        if delta == "auto":
            deltas[beta] = find_delta(
                config_template.with_beta(beta), interval, probe_mode=0
            ).delta
        else:
            deltas[beta] = float(delta)

    tasks = [
        (config_template, beta, int(n), tuple(interval), deltas[beta])
        for beta in betas
        for n in mode_indices
    ]
    workers = default_workers() if workers is None else max(1, workers)
    if workers == 1:
        return [_sweep_task(a) for a in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_task, tasks, chunksize=1))


def find_delta(
    config_template: GemConfig,
    interval,
    probe_mode: int,
    *,
    search_halfwidth: Optional[float] = None,
) -> DeltaSearchResult:
    """Readout offset delta* maximizing the probe-mode fidelity.

    One solver run provides the uncorrected record; candidate offsets are
    evaluated through the exact gauge relation (see shifted_output), with
    a dense scan over [-halfwidth, +halfwidth] followed by golden-section
    refinement of the bracketed peak.  The default halfwidth is half the
    medium bandwidth eta0*L.  Returns delta = 0 flagged unimproved when no
    candidate beats the uncorrected fidelity.
    """
    T = interval[1] - interval[0]
    rec, echo_window, sigma = _mode_run(config_template, probe_mode, interval)

    def f_of(d: float) -> float:
        return fidelity(
            rec.input_series,
            shifted_output(rec, d),
            rec.grid.dt,
            sigma,
            echo_window=echo_window,
        ).fidelity

    if search_halfwidth is None:
        search_halfwidth = abs(config_template.stark.eta0) * config_template.grid.length / 2.0
    # The objective is multimodal with period ~2*pi/T, so bracket the best
    # lobe with a dense scan before the golden-section refinement.
    step = 2.0 * np.pi / T / 8.0
    n_scan = max(int(np.ceil(2.0 * search_halfwidth / step)) + 1, 17)
    grid = np.linspace(-search_halfwidth, search_halfwidth, n_scan)
    vals = np.array([f_of(d) for d in grid])
    ib = int(np.argmax(vals))
    lo = grid[max(0, ib - 1)]
    hi = grid[min(n_scan - 1, ib + 1)]
    tol = _DELTA_REL_TOL * 2.0 * search_halfwidth
    tol = min(tol, (hi - lo) / 64.0)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f_of(c), f_of(d)
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f_of(d)
    best = 0.5 * (a + b)
    f_best = f_of(best)
    f_zero = f_of(0.0)
    if f_best <= f_zero:
        return DeltaSearchResult(0.0, f_zero, f_zero, False)
    return DeltaSearchResult(float(best), float(f_best), float(f_zero), True)
