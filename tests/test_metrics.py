import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemsim import run_gem
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
    def test_rows_and_determinism_across_workers(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        interval = (6.0, 10.0)
        betas = [0.5, 1.0]
        modes = [-2, 0, 1]
        rows1 = mode_fidelity_sweep(cfg, interval, betas, modes, workers=1)
        rows2 = mode_fidelity_sweep(cfg, interval, betas, modes, workers=2)
        assert [r.__dict__ for r in rows1] == [r.__dict__ for r in rows2]
        assert [(r.beta, r.mode_n) for r in rows1] == [
            (b, n) for b in betas for n in modes
        ]
        for r in rows1:
            assert 0.0 <= r.fidelity <= r.shape <= 1.0 + 1e-3
            assert r.fidelity <= math.sqrt(r.sigma) * (1.0 + 1e-3)

    def test_flat_spectral_response(self):
        # this miniature medium has under one sinc lobe of spectral margin,
        # so only the central modes are compared here; the 1% flatness over
        # the full mode ladder is asserted at acceptance scale
        cfg = small_config(beta=1.0, **SWEEP_KW)
        rows = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 0, 1])
        sigmas = [r.sigma for r in rows]
        assert (max(sigmas) - min(sigmas)) / np.mean(sigmas) < 0.02

    def test_rejects_out_of_band_modes(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(Exception):
            mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [50])

    def test_rejects_interval_past_switch(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        with pytest.raises(Exception):
            mode_fidelity_sweep(cfg, (6.0, 25.0), [1.0], [0])


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

    def test_shared_shift_helps_other_modes(self):
        cfg = small_config(beta=1.0, **SWEEP_KW)
        res = find_delta(cfg, (6.0, 10.0), probe_mode=0, search_halfwidth=2.0)
        if res.improved:
            rows0 = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 1], delta=0.0)
            rows1 = mode_fidelity_sweep(cfg, (6.0, 10.0), [1.0], [-1, 1],
                                        delta=res.delta)
            for a, b in zip(rows0, rows1):
                assert b.fidelity >= a.fidelity - 1e-6
