"""Efficiency, recall fidelity, optimal delay/offset search, mode sweeps.

The fidelity of a run is the peak correlation of the output with the
time-reversed input,

    F = max_tau | int conj(E_out(tau - t)) E_in(t) dt | / N_ph,

with N_ph = int |E_in|^2 dt.  The modulus removes the arbitrary global
phase; the delay scan is restricted to an echo window so prompt
(unstored) transmission cannot masquerade as recall.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np
from numpy.fft import fft, ifft

from .core import ConfigError, GemConfig, _short_int, make_plane_wave_mode
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

# bytes of one block of complex rows: _offset_scan correlates its offsets
# a block of rows at a time, so its temporaries are blocks, not one row per
# offset; larger blocks run no faster
_BLOCK_BYTES = 1 << 18


def _block_rows(width: int) -> int:
    """Rows of one block of _BLOCK_BYTES of complex rows, width values each."""
    return max(1, _BLOCK_BYTES // (16 * width))


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
    sigma: float  # the probe run's efficiency


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


def _weighted_input(e_in: np.ndarray, dt: float):
    """The edge-weighted input of the fidelity correlation and its photon
    number N_ph."""
    w = _edge_weights(e_in)
    n_ph = float(np.sum(np.abs(e_in) ** 2 * w) * dt)
    if n_ph <= 0.0:
        raise ValueError("input series carries no energy")
    return e_in * w, n_ph


def _fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= n >= 1: an FFT length pocketfft
    transforms fast (scipy.fft.next_fast_len(n, real=False) returns the
    same)."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _peak_abs(ac: np.ndarray, dt: float):
    """Maximum of each row of ac (last axis) and its position i*dt, both
    refined by the parabola through the maximum and its two neighbours
    when the maximum is interior and the parabola concave."""
    n = ac.shape[-1]
    i = np.argmax(ac, axis=-1)[..., None]
    c0, cm, cp = (np.take_along_axis(ac, j, axis=-1)[..., 0]
                  for j in (i, np.maximum(i - 1, 0), np.minimum(i + 1, n - 1)))
    i = i[..., 0]
    den = cm - 2.0 * c0 + cp
    refine = (i > 0) & (i < n - 1) & (den < 0.0)
    d = np.where(refine, 0.5 * (cm - cp) / np.where(refine, den, -1.0), 0.0)
    return np.where(refine, c0 - 0.25 * (cm - cp) * d, c0), (i + d) * dt


def echo_peak_time(record: FieldRecord) -> float:
    """Time of max |output| after the switch (parabolic refinement)."""
    after = record.times > record.config.stark.switch_time
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
    is applied to the output beforehand (see shifted_output).  The full
    correlation (2n - 1 delays) is one product of numpy.fft transforms,
    zero-padded to the 11-smooth length _fast_len(2n - 1).
    """
    if e_in.shape != e_out.shape:
        raise ValueError("series must share one time grid")
    t = np.arange(e_in.size) * dt
    eo = np.asarray(e_out, dtype=complex)
    if echo_window is not None:
        w0, w1 = echo_window
        eo = np.where((t >= w0) & (t <= w1), eo, 0.0)
    y, n_ph = _weighted_input(e_in, dt)
    size = 2 * e_in.size - 1
    nfft = _fast_len(size)
    corr = ifft(fft(np.conj(eo), nfft) * fft(y, nfft))[:size] * dt
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
    ts = record.config.stark.switch_time
    return record.output_series * np.exp(1j * delta * np.clip(t - ts, 0.0, None))


def _offset_scan(record: FieldRecord, echo_window, deltas: np.ndarray) -> np.ndarray:
    """fidelity(..., shifted_output(record, d), ..., echo_window).fidelity
    for every offset d in deltas, scored in blocks of offsets.

    The correlation is taken between the input trimmed to its nonzero
    samples and the output trimmed to the echo window.  The weighted input
    is transformed once; each block of conjugated, phase-shifted outputs
    (_block_rows(nfft) offsets, _BLOCK_BYTES bytes) is one 2-D
    buffer, correlated by one forward and one inverse FFT along its rows,
    both in place, so a block allocates no spectrum of its own.
    A zero on each side of the trimmed correlation stands for the full
    correlation's samples there (zero up to FFT rounding), so a peak on
    the trimmed edge is refined against the same neighbours as in
    fidelity.  The values agree with fidelity to rounding.
    """
    dt = record.grid.dt
    y, n_ph = _weighted_input(record.input_series, dt)
    nt = y.size
    t = np.arange(nt) * dt
    echo = np.nonzero((t >= echo_window[0]) & (t <= echo_window[1]))[0]
    if echo.size == 0:
        raise ValueError("correlation vanishes at every delay")
    support = np.nonzero(y)[0]
    a, b, p, q = echo[0], echo[-1] + 1, support[0], support[-1] + 1
    x0 = np.conj(record.output_series[a:b])
    ramp = np.clip(record.times[a:b] - record.config.stark.switch_time, 0.0, None)
    m, size = b - a, (b - a) + (q - p) - 1
    nfft = _fast_len(size)
    y_hat = fft(y[p:q], nfft) * dt
    # sample `first` of the full correlation (length 2*nt - 1) is trimmed sample 0
    first = a + p
    lead = 1 if first > 0 else 0
    trail = 1 if first + size < 2 * nt - 1 else 0

    rows = min(len(deltas), _block_rows(nfft))
    buf = np.empty((rows, nfft), dtype=complex)
    phase = np.empty((rows, m))
    ac = np.zeros((rows, lead + size + trail))
    vals = np.empty(len(deltas))
    for s in range(0, len(deltas), rows):
        k = min(rows, len(deltas) - s)
        np.multiply.outer(-deltas[s:s + k], ramp, out=phase[:k])
        x = buf[:k, :m]
        np.cos(phase[:k], out=x.real)
        np.sin(phase[:k], out=x.imag)
        x *= x0
        buf[:k, m:] = 0.0
        block = buf[:k]
        fft(block, axis=1, out=block)
        block *= y_hat
        ifft(block, axis=1, out=block)
        np.abs(block[:, :size], out=ac[:k, lead:lead + size])
        vals[s:s + k] = _peak_abs(ac[:k], dt)[0]
    if not np.all(vals > 0.0):
        raise ValueError("correlation vanishes at every delay")
    return vals / n_ph


def _half_band(config: GemConfig) -> float:
    """Half the medium bandwidth, |eta0|*L/2: the largest storable mode
    frequency, and find_delta's default search halfwidth."""
    return abs(config.stark.eta0) * config.grid.length / 2.0


def check_mode_run(config: GemConfig, interval, modes: Sequence[int]) -> None:
    """Raise ConfigError unless plane-wave modes on `interval` can be stored
    and recalled: the window must end by the switch time and each mode's
    frequency 2*pi*n/T must lie inside the half band |eta0|*L/2."""
    t1, t2 = interval
    if not t2 > t1:
        raise ConfigError("interval must satisfy t2 > t1")
    if t2 > config.stark.switch_time:
        raise ConfigError("interval must end before the switch time")
    band = _half_band(config)
    for n in modes:
        try:
            outside = abs(2.0 * np.pi * n / (t2 - t1)) > band
        except OverflowError:  # an index beyond the float range
            outside = True
        if outside:
            raise ConfigError(f"mode {_short_int(n)} lies outside the medium bandwidth")


def _gem_windows(config: GemConfig):
    """Default efficiency windows of a GEM run: the storage and the recall
    side of the switch."""
    ts = config.stark.switch_time
    return (0.0, ts), (ts, config.grid.t_max)


def _mode_run(config: GemConfig, n: int, interval) -> FieldRecord:
    """Carrier-gauge run of plane-wave mode n on `interval` (its record
    stores no field rows: the scores read its series only)."""
    t1, t2 = interval
    pulse = make_plane_wave_mode(n, t1, t2)
    omega = 2.0 * np.pi * n / (t2 - t1)
    return run_gem(config, pulse, carrier=omega)


def _score(rec: FieldRecord, delta: float) -> FidelityReport:
    """Recall of a solved mode run read out with offset delta (the raw
    output when delta is 0.0), scored over its echo window (switch_time,
    t_max), with the run's efficiency over the two windows of _gem_windows."""
    input_window, echo_window = _gem_windows(rec.config)
    sigma = efficiency_numeric(rec, input_window, echo_window)
    out = shifted_output(rec, delta) if delta != 0.0 else rec.output_series
    return fidelity(rec.input_series, out, rec.grid.dt, sigma, echo_window=echo_window)


def mode_fidelity_sweep(
    config_template: GemConfig,
    interval,
    betas: Sequence[float],
    mode_indices: Sequence[int],
    *,
    delta: str | float = 0.0,
    workers: int = 1,
) -> list[SweepRow]:
    """One row per listed (beta, mode), in listed order: sigma, F, F^r, tau,
    delta.

    delta = "auto" searches the readout offset once per beta on the n = 0
    probe mode and applies it to every mode of that beta (the correction
    is a mode-independent frequency shift); a float applies a fixed offset
    and 0.0 leaves the readout uncorrected.  Every distinct (beta, mode)
    is solved once, the probes first, in this process or with workers > 1
    on a process pool of at most one worker per distinct run.  The offset
    enters a row only through the exact phase of shifted_output, so no
    solve waits for a search: each probe is searched as its run arrives,
    and each run is scored as it arrives and then dropped.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_mode_run(config_template, interval, mode_indices)

    deltas = {} if delta == "auto" else {b: float(delta) for b in betas}
    listed = [(b, int(n)) for b in betas for n in mode_indices]
    # the first run of each beta without an offset is its n = 0 probe
    keys = list(dict.fromkeys([(b, 0) for b in betas if b not in deltas] + listed))
    tasks = ([config_template.with_beta(b) for b, _ in keys], [n for _, n in keys],
             repeat(interval))
    halfwidth = _half_band(config_template)
    rows = {}
    # under fork the pool starts all its workers at the first submit, so it
    # gets no more than there are runs
    workers = min(workers, len(keys))
    pool = None
    if workers > 1:
        # imported here: the pool module loads multiprocessing, which no
        # run without a pool needs
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    try:
        runs = pool.map(_mode_run, *tasks, chunksize=1) if pool else map(_mode_run, *tasks)
        for (b, n), rec in zip(keys, runs):
            if b not in deltas:
                deltas[b] = _search_delta(rec, interval, halfwidth).delta
            rep = _score(rec, deltas[b])
            rows[b, n] = SweepRow(beta=b, mode_n=n, sigma=rep.sigma, fidelity=rep.fidelity,
                                  shape=rep.shape, tau_us=rep.tau, delta=deltas[b])
    finally:
        if pool:
            # an error or an interrupt in this loop cancels the solves not yet started
            pool.shutdown(cancel_futures=True)
    return [rows[k] for k in listed]


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
    refinement of the bracketed peak.  The scan scores its offsets in FFT
    blocks (_offset_scan, equal to fidelity to rounding); the golden stage
    and the returned fidelities call fidelity itself.  The default
    halfwidth is half the medium bandwidth eta0*L.  Returns delta = 0
    flagged unimproved when no candidate beats the uncorrected fidelity.
    """
    if search_halfwidth is None:
        search_halfwidth = _half_band(config_template)
    rec = _mode_run(config_template, probe_mode, interval)
    return _search_delta(rec, interval, search_halfwidth)


def _search_delta(rec: FieldRecord, interval, search_halfwidth: float) -> DeltaSearchResult:
    """find_delta's search over a solved probe run (see _mode_run)."""
    echo_window = _gem_windows(rec.config)[1]
    # The objective is multimodal with period ~2*pi/T, so bracket the best
    # lobe with a dense scan before the golden-section refinement.
    step = 2.0 * np.pi / (interval[1] - interval[0]) / 8.0
    n_scan = max(int(np.ceil(2.0 * search_halfwidth / step)) + 1, 17)
    grid = np.linspace(-search_halfwidth, search_halfwidth, n_scan)
    vals = _offset_scan(rec, echo_window, grid)
    ib = int(np.argmax(vals))
    lo = grid[max(0, ib - 1)]
    hi = grid[min(n_scan - 1, ib + 1)]
    tol = _DELTA_REL_TOL * 2.0 * search_halfwidth
    tol = min(tol, (hi - lo) / 64.0)
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = _score(rec, c).fidelity, _score(rec, d).fidelity
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = _score(rec, c).fidelity
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = _score(rec, d).fidelity
    best = 0.5 * (a + b)
    f_best = _score(rec, best).fidelity
    zero = _score(rec, 0.0)
    if f_best <= zero.fidelity:
        return DeltaSearchResult(0.0, zero.fidelity, zero.fidelity, False, zero.sigma)
    return DeltaSearchResult(float(best), float(f_best), float(zero.fidelity), True, zero.sigma)
