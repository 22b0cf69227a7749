import concurrent.futures
import math
import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from gemsim import ConfigError, metrics, run_gem
from gemsim.metrics import (
    DeltaSearchResult,
    efficiency_analytic,
    efficiency_numeric,
    fidelity,
    find_delta,
    mode_fidelity_sweep,
    shifted_output,
)


from conftest import small_config, small_pulse


class TestEfficiencyAnalytic:
    def test_zero_depth(self):
        assert efficiency_analytic(0.0) == 0.0

    def test_quarter_point(self):
        beta = math.log(2.0) / (2.0 * math.pi)
        assert efficiency_analytic(beta) == pytest.approx(0.25, rel=1e-12)

    def test_deep_medium(self):
        assert efficiency_analytic(3.3) == pytest.approx(0.9999999980, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            efficiency_analytic(-0.1)

    @given(beta=st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_unit_interval(self, beta):
        v = efficiency_analytic(beta)
        assert 0.0 <= v < 1.0 + 1e-12


class TestEfficiencyNumeric:
    def test_no_storage_with_vanishing_coupling(self):
        cfg = small_config(beta=1.0)
        cfg = type(cfg)(g=1e-12, linear_density=cfg.linear_density, gamma=0.0,
                        stark=cfg.stark, grid=cfg.grid)
        rec = run_gem(cfg, small_pulse())
        assert efficiency_numeric(rec, (0.0, 10.0), (15.0, 40.0)) < 1e-12

    def test_window_validation(self):
        rec = run_gem(small_config(), small_pulse())
        with pytest.raises(ValueError):
            efficiency_numeric(rec, (0.0, 20.0), (15.0, 40.0))  # overlap
        with pytest.raises(ValueError):
            efficiency_numeric(rec, (5.0, 5.0), (15.0, 40.0))

    def test_quarter_depth(self):
        rec = run_gem(small_config(beta=0.25), small_pulse())
        sig = efficiency_numeric(rec, (0.0, 10.0), (15.0, 40.0))
        assert sig == pytest.approx((1.0 - math.exp(-math.pi / 2.0)) ** 2, abs=0.02)


def _series(nt, dt, fn):
    t = np.arange(nt) * dt
    return fn(t)


class TestFidelity:
    def test_perfect_time_reflected_recall(self):
        dt = 0.02
        nt = 4000
        t = np.arange(nt) * dt
        pulse = lambda x: np.exp(-(((x - 12.0) / 2.0) ** 2)) * np.exp(0.9j * x)
        tau0 = 60.0
        e_in = pulse(t)
        e_out = pulse(tau0 - t)
        rep = fidelity(e_in, e_out, dt, sigma=1.0)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-6)
        assert rep.tau == pytest.approx(tau0, abs=dt)
        assert rep.shape == pytest.approx(1.0, abs=1e-6)

    def test_uniform_loss_isolated_by_shape(self):
        dt = 0.02
        nt = 4000
        t = np.arange(nt) * dt
        pulse = lambda x: np.exp(-(((x - 12.0) / 2.0) ** 2))
        sigma0 = 0.36
        e_in = pulse(t)
        e_out = math.sqrt(sigma0) * pulse(55.0 - t)
        rep = fidelity(e_in, e_out, dt, sigma=sigma0)
        assert rep.fidelity == pytest.approx(math.sqrt(sigma0), abs=1e-6)
        assert rep.shape == pytest.approx(1.0, abs=1e-5)

    def test_report_identity(self):
        dt = 0.02
        t = np.arange(3000) * dt
        e_in = np.exp(-(((t - 10.0) / 1.5) ** 2))
        e_out = 0.5 * np.exp(-(((t - 40.0) / 1.5) ** 2))
        rep = fidelity(e_in, e_out, dt, sigma=0.3)
        assert rep.shape * math.sqrt(rep.sigma) == pytest.approx(rep.fidelity, rel=1e-12)

    def test_echo_window_excludes_prompt_leak(self):
        dt = 0.02
        t = np.arange(5000) * dt
        win = (t >= 10.0) & (t < 20.0)
        e_in = np.where(win, 1.0 / math.sqrt(10.0), 0.0).astype(complex)
        prompt = 0.8 * e_in
        echo = np.where((t >= 60.0) & (t < 70.0), 0.3 / math.sqrt(10.0), 0.0)
        e_out = prompt + echo
        free = fidelity(e_in, e_out, dt, sigma=0.09)
        gated = fidelity(e_in, e_out, dt, sigma=0.09, echo_window=(40.0, 100.0))
        assert free.fidelity == pytest.approx(0.8, abs=1e-3)
        assert gated.fidelity == pytest.approx(0.3, abs=1e-3)
        # shape never exceeds one beyond numerical slack once gated
        assert gated.shape <= 1.0 + 1e-3

    def test_delta_application(self):
        dt = 0.02
        t = np.arange(4000) * dt
        e_in = np.exp(-(((t - 12.0) / 2.0) ** 2))
        d0 = 0.9
        e_out = np.exp(-(((t - 55.0) / 2.0) ** 2)) * np.exp(-1j * d0 * t)
        degraded = fidelity(e_in, e_out, dt, sigma=1.0)
        # undo the readout offset on the output before correlating
        repaired = fidelity(e_in, e_out * np.exp(1j * d0 * t), dt, sigma=1.0)
        assert repaired.fidelity > degraded.fidelity
        assert repaired.fidelity == pytest.approx(1.0, abs=1e-4)

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros(100, complex), np.ones(100, complex), 0.1, 1.0)

    @given(
        amp=st.floats(0.1, 2.0),
        phase=st.floats(0.0, 2.0 * math.pi),
        tau0=st.floats(40.0, 55.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_global_phase_invariance(self, amp, phase, tau0):
        dt = 0.02
        t = np.arange(4000) * dt
        e_in = np.exp(-(((t - 12.0) / 2.0) ** 2))
        e_out = amp * np.exp(1j * phase) * np.exp(-(((t - tau0) / 2.0) ** 2))
        rep = fidelity(e_in, e_out, dt, sigma=amp**2)
        assert rep.fidelity == pytest.approx(amp, rel=1e-3)
        assert rep.tau == pytest.approx(tau0 + 12.0, abs=0.05)


def scipy_fidelity(e_in, e_out, dt, echo_window=None):
    """(F, tau, N_ph) of fidelity, the correlation taken by scipy's fftconvolve."""
    t = np.arange(e_in.size) * dt
    eo = np.asarray(e_out, dtype=complex)
    if echo_window is not None:
        eo = np.where((t >= echo_window[0]) & (t <= echo_window[1]), eo, 0.0)
    y, n_ph = metrics._weighted_input(e_in, dt)
    peak, tau = metrics._peak_abs(np.abs(fftconvolve(np.conj(eo), y, mode="full") * dt), dt)
    return float(peak) / n_ph, float(tau), n_ph


class TestScipyReference:
    """The numpy correlation of fidelity against scipy's, bit for bit."""

    def test_fast_len_is_scipys_complex_fast_length(self):
        got = [metrics._fast_len(n) for n in range(1, 65537)]
        assert got == [next_fast_len(n, real=False) for n in range(1, 65537)]

    @staticmethod
    def _assert_equal(e_in, e_out, dt, echo_window=None):
        rep = fidelity(e_in, e_out, dt, 0.5, echo_window=echo_window)
        assert (rep.fidelity, rep.tau, rep.n_ph) == scipy_fidelity(e_in, e_out, dt, echo_window)

    @pytest.mark.parametrize("n", [2, 3, 97, 1000, 1601, 4001])
    def test_random_complex_series(self, n):
        rng = np.random.default_rng(n)
        e_in, e_out = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        dt = 0.025
        self._assert_equal(e_in, e_out, dt)
        self._assert_equal(e_in, e_out, dt, echo_window=(0.25 * n * dt, 0.75 * n * dt))

    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_probe_run(self, delta):
        rec = metrics._mode_run(small_config(beta=1.0, **SWEEP_KW), 0, (6.0, 10.0))
        echo_window = metrics._gem_windows(rec.config)[1]
        out = shifted_output(rec, delta)
        self._assert_equal(rec.input_series, out, rec.grid.dt)
        self._assert_equal(rec.input_series, out, rec.grid.dt, echo_window)

    def test_real_input_agrees_to_rounding(self):
        # scipy transforms a real series by a real FFT, numpy by a complex
        # one; the solvers' series are complex, so only rounding differs here
        t = np.arange(3000) * 0.02
        e_in = np.exp(-(((t - 10.0) / 1.5) ** 2))
        e_out = 0.5 * np.exp(-(((t - 40.0) / 1.5) ** 2)) * np.exp(0.3j * t)
        rep = fidelity(e_in, e_out, 0.02, 0.25)
        ref = scipy_fidelity(e_in, e_out, 0.02)
        np.testing.assert_allclose((rep.fidelity, rep.tau, rep.n_ph), ref, rtol=1e-12)


class TestShiftedOutput:
    def test_shift_is_identity_at_zero(self):
        rec = run_gem(small_config(), small_pulse())
        np.testing.assert_array_equal(shifted_output(rec, 0.0), rec.output_series)

    def test_phase_only_after_switch(self):
        rec = run_gem(small_config(switch=15.0), small_pulse())
        shifted = shifted_output(rec, 0.5)
        before = rec.times <= 15.0
        np.testing.assert_array_equal(shifted[before], rec.output_series[before])
        np.testing.assert_allclose(np.abs(shifted), np.abs(rec.output_series),
                                   rtol=1e-12)


SWEEP_KW = dict(switch=20.0, t_max=50.0, nt=2001, nz=160)


class TestModeFidelitySweep:
    @pytest.mark.parametrize("delta", [0.0, "auto"])
    def test_rows_and_determinism_across_workers(self, delta):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        interval = (6.0, 10.0)
        betas = [0.5, 1.0]
        modes = [-2, 0, 1]
        rows1 = mode_fidelity_sweep(cfg, interval, betas, modes, delta=delta, workers=1)
        rows2 = mode_fidelity_sweep(cfg, interval, betas, modes, delta=delta, workers=2)
        assert [r.__dict__ for r in rows1] == [r.__dict__ for r in rows2]
        assert [(r.beta, r.mode_n) for r in rows1] == [
            (b, n) for b in betas for n in modes
        ]
        for r in rows1:
            assert 0.0 <= r.fidelity <= r.shape <= 1.0 + 1e-3
            assert r.fidelity <= math.sqrt(r.sigma) * (1.0 + 1e-3)
        if delta == "auto":
            # the sweep searches each beta's probe run as find_delta does
            found = {b: find_delta(cfg.with_beta(b), interval, 0).delta for b in betas}
            assert [r.delta for r in rows1] == [found[r.beta] for r in rows1]
        else:
            assert all(r.delta == 0.0 for r in rows1)

    def test_auto_sweep_solves_each_beta_and_mode_once(self, monkeypatch):
        # the n = 0 probe of each beta is also its listed mode 0: 2 x 3
        # solves, where a separate probe solve per beta would make 8
        calls = []
        solve = metrics.run_gem

        def counted(config, *args, **kwargs):
            calls.append((config.beta, kwargs["carrier"]))
            return solve(config, *args, **kwargs)

        monkeypatch.setattr(metrics, "run_gem", counted)
        cfg = small_config(beta=1.0, **SWEEP_KW)
        rows = mode_fidelity_sweep(cfg, (6.0, 10.0), [0.5, 1.0], [-1, 0, 1],
                                   delta="auto", workers=1)
        assert len(rows) == 6
        assert len(calls) == len(set(calls)) == 6

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="counts the solves of forked workers, which inherit the patch")
    def test_a_scoring_error_cancels_the_queued_solves(self, monkeypatch, tmp_path):
        log = tmp_path / "solves"
        solve = metrics.run_gem

        def logged(*args, **kwargs):
            with open(log, "a") as f:
                f.write("solve\n")
            return solve(*args, **kwargs)

        def fail(run, delta):
            raise ValueError("scoring failed")

        monkeypatch.setattr(metrics, "run_gem", logged)
        monkeypatch.setattr(metrics, "_score", fail)
        cfg = small_config(beta=1.0, **SWEEP_KW)
        betas, modes = [0.5, 1.0, 1.5], [-2, -1, 0, 1, 2]
        with pytest.raises(ValueError, match="scoring failed"):
            mode_fidelity_sweep(cfg, (6.0, 10.0), betas, modes, workers=2)
        # the first run fails in this process; at most the solves already
        # handed to the two workers finish after it
        assert len(log.read_text().split()) < len(betas) * len(modes)

    @pytest.mark.parametrize("workers, betas, modes, delta, pool_size", [
        (5000, [0.5, 1.0], [-1, 1], "auto", 6),  # the two n = 0 probes and four listed runs
        (3, [0.5, 1.0], [-1, 1], 0.0, 3),
        (5000, [1.0], [0], 0.0, None),  # one run: no pool
    ], ids=["probes_and_modes", "fewer_workers_than_runs", "one_run"])
    def test_pool_has_at_most_one_worker_per_distinct_run(self, monkeypatch, workers, betas,
                                                         modes, delta, pool_size):
        # a stand-in records the pool size and solves in this process, so no
        # worker process is started
        sizes = []

        class StandInPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

            def shutdown(self, cancel_futures=False):
                pass

        # the sweep imports the pool class from concurrent.futures when it
        # starts a pool
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", StandInPool)
        cfg = small_config(beta=1.0, **SWEEP_KW)
        rows = mode_fidelity_sweep(cfg, (6.0, 10.0), betas, modes, delta=delta,
                                   workers=workers)
        assert len(rows) == len(betas) * len(modes)
        assert sizes == ([] if pool_size is None else [pool_size])

    def test_flat_spectral_response(self):
        # this miniature medium has under one sinc lobe of spectral margin,
        # so only the central modes are compared here; the 1% flatness over
        # the full mode ladder is asserted at acceptance scale
        cfg = small_config(beta=1.0, **SWEEP_KW)
        rows = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 0, 1])
        sigmas = [r.sigma for r in rows]
        assert (max(sigmas) - min(sigmas)) / np.mean(sigmas) < 0.02

    def test_rejects_workers_below_one(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [0], workers=0)

    def test_rejects_out_of_band_modes(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(Exception):
            mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [50])

    def test_rejects_interval_past_switch(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(Exception):
            mode_fidelity_sweep(cfg, (6.0, 25.0), [1.0], [0])

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan")])
    def test_a_non_positive_beta_raises_before_any_solve_or_pool(self, monkeypatch, beta):
        started = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: started.append("pool"))
        monkeypatch.setattr(metrics, "_mode_run", lambda *args: started.append("solve"))
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(ConfigError, match="beta must be positive"):
            mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0, beta], [-1, 0], delta="auto",
                                workers=2)
        assert started == []


class TestFindDelta:
    def test_recovers_injected_shift(self):
        # constructed inverse problem on synthetic series: the search runs
        # on the solver record, so inject the shift through delta_offset
        cfg = small_config(beta=1.0, delta_offset=-0.6, **SWEEP_KW)
        res = find_delta(cfg, (6.0, 10.0), probe_mode=0, search_halfwidth=2.0)
        base = find_delta(small_config(beta=1.0, **SWEEP_KW), (6.0, 10.0),
                          probe_mode=0, search_halfwidth=2.0)
        # the pre-detuned run needs (base delta + 0.6) of correction
        assert res.delta - base.delta == pytest.approx(0.6, abs=2.0 * 4.0 * 1e-3)

    def test_improves_or_flags(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        res = find_delta(cfg, (6.0, 10.0), probe_mode=0, search_halfwidth=2.0)
        assert isinstance(res, DeltaSearchResult)
        assert res.fidelity >= res.fidelity_at_zero
        if not res.improved:
            assert res.delta == 0.0

    def test_no_offset_that_beats_the_uncorrected_readout_is_flagged_unimproved(
            self, monkeypatch):
        # a stand-in score peaks at delta = 0 exactly, so no candidate beats it
        score = metrics._score

        def peaked_at_zero(run, delta):
            rep = score(run, 0.0)
            return replace(rep, fidelity=rep.fidelity - abs(delta))

        monkeypatch.setattr(metrics, "_score", peaked_at_zero)
        cfg = small_config(beta=1.0, **SWEEP_KW)
        res = find_delta(cfg, (6.0, 10.0), probe_mode=0, search_halfwidth=2.0)
        rep = score(metrics._mode_run(cfg, 0, (6.0, 10.0)), 0.0)
        assert res == DeltaSearchResult(0.0, rep.fidelity, rep.fidelity, False, rep.sigma)

    def test_shared_shift_helps_other_modes(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        res = find_delta(cfg, (6.0, 10.0), probe_mode=0, search_halfwidth=2.0)
        if res.improved:
            rows0 = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 1], delta=0.0)
            rows1 = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 1],
                                        delta=res.delta)
            for a, b in zip(rows0, rows1):
                assert b.fidelity >= a.fidelity - 1e-6


class TestOffsetScan:
    """find_delta's blocked scan against one fidelity call per offset."""

    @pytest.fixture(scope="class")
    def probe(self):
        rec = metrics._mode_run(small_config(beta=1.0, **SWEEP_KW), 0, (6.0, 10.0))
        return rec, metrics._gem_windows(rec.config)[1]

    @staticmethod
    def _blocks(monkeypatch):
        """Row counts of the 2-D forward FFTs, one per block of offsets."""
        rows = []
        fft = metrics.fft

        def spy(x, *args, **kwargs):
            if x.ndim == 2:
                rows.append(x.shape[0])
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(metrics, "fft", spy)
        return rows

    @staticmethod
    def _assert_matches_fidelity(rec, echo_window, deltas):
        got = metrics._offset_scan(rec, echo_window, deltas)
        ref = [fidelity(rec.input_series, shifted_output(rec, d), rec.grid.dt, 1.0,
                        echo_window=echo_window).fidelity for d in deltas]
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0)

    def test_scan_shorter_than_one_block(self, probe, monkeypatch):
        rec, echo_window = probe
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1 << 20)
        blocks = self._blocks(monkeypatch)
        self._assert_matches_fidelity(rec, echo_window, np.linspace(-2.0, 2.0, 22))
        assert blocks == [22]

    def test_last_block_partly_filled(self, probe, monkeypatch):
        rec, echo_window = probe
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1 << 17)
        blocks = self._blocks(monkeypatch)
        self._assert_matches_fidelity(rec, echo_window, np.linspace(-2.0, 2.0, 22))
        assert len(blocks) > 1 and sum(blocks) == 22
        assert len(set(blocks[:-1])) == 1 and 0 < blocks[-1] < blocks[0]

    @pytest.mark.parametrize("edge", ["first", "last"])
    def test_peak_on_a_trimmed_edge(self, probe, edge):
        # a one-sample input correlates to the output itself, so the
        # correlation peaks where |output| does: on the echo window's edge
        rec, echo_window = probe
        t = rec.times
        e_in = np.zeros(t.size, dtype=complex)
        e_in[np.argmax(t >= 7.0)] = 1.0
        echo = (t >= echo_window[0]) & (t <= echo_window[1])
        ramp = (t - echo_window[0]) if edge == "last" else (echo_window[1] - t)
        e_out = np.where(echo, np.exp(0.1 * ramp) * np.exp(0.7j * t), 0.0)
        synthetic = replace(rec, input_series=e_in, output_series=e_out)
        self._assert_matches_fidelity(synthetic, echo_window, np.linspace(-1.0, 1.0, 9))

    def test_the_block_constant_sizes_the_scan(self, probe, monkeypatch):
        # metrics._BLOCK_BYTES, the one block size left (the march hands on
        # single rows): patched, it resizes the offset scan's blocks
        rec, echo_window = probe
        scan_shapes = []
        fft = metrics.fft

        def fft_spy(x, *args, **kwargs):
            if x.ndim == 2:
                scan_shapes.append(x.shape)
            return fft(x, *args, **kwargs)

        monkeypatch.setattr(metrics, "fft", fft_spy)
        monkeypatch.setattr(metrics, "_BLOCK_BYTES", 1 << 16)
        metrics._offset_scan(rec, echo_window, np.linspace(-2.0, 2.0, 22))
        nfft = scan_shapes[0][1]
        size = metrics._block_rows(nfft)
        blocks = [rows for rows, _ in scan_shapes]
        assert blocks == [min(size, 22 - lo) for lo in range(0, 22, size)]
        assert len(scan_shapes) > 1
