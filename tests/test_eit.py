import math

import numpy as np
import pytest

from gemsim import ConfigError, Grid, PulseSpec
from gemsim.eit import EitConfig, eit_polariton, omega_c_schedule, run_eit


def eit_config(**kw):
    base = dict(
        n_atoms=400.0,
        g=1.0,
        omega_c0=20.0,
        switch_down=14.0,
        switch_up=30.0,
        ramp_tau=1.0,
        grid=Grid(z_min=0.0, z_max=1.0, nz=256, t_max=45.0, nt=4501),
        gamma_e=1.0,
    )
    base.update(kw)
    return EitConfig(**base)


class TestEitConfig:
    def test_group_delay(self):
        cfg = eit_config()
        assert cfg.group_delay == pytest.approx(400.0 / 400.0 / 1.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            eit_config(n_atoms=0.0)
        with pytest.raises(ConfigError):
            eit_config(switch_down=30.0, switch_up=14.0)
        with pytest.raises(ConfigError):
            eit_config(omega_c0=-1.0)


class TestControlSchedule:
    def test_plateaus(self):
        cfg = eit_config()
        assert omega_c_schedule(cfg, 0.0) == pytest.approx(20.0, rel=1e-6)
        assert omega_c_schedule(cfg, 22.0) == pytest.approx(0.0, abs=1e-4)
        assert omega_c_schedule(cfg, 44.0) == pytest.approx(20.0, rel=1e-6)

    def test_abrupt_control(self):
        cfg = eit_config(ramp_tau=0.0)
        t = np.array([13.9, 14.0, 29.9, 30.0])
        np.testing.assert_allclose(omega_c_schedule(cfg, t), [20.0, 0.0, 0.0, 20.0])


class TestRunEit:
    def test_transparency_for_cw_probe(self):
        # constant control, weak long pulse well inside the window
        cfg = eit_config(switch_down=400.0, switch_up=401.0,
                         grid=Grid(z_min=0.0, z_max=1.0, nz=256, t_max=40.0, nt=4001))
        pulse = PulseSpec(kind="gaussian", center=20.0, width=6.0)
        rec = run_eit(cfg, pulse)
        i = np.argmin(np.abs(rec.times - 21.0))  # peak plus group delay
        assert abs(rec.output_series[i]) > 0.95

    def test_spin_wave_frozen_while_dark(self):
        cfg = eit_config(n_atoms=2000.0, omega_c0=15.0)  # delay ~ 8.9 us
        pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
        rec = run_eit(cfg, pulse)
        hold = (rec.field_times > 18.0) & (rec.field_times < 28.0)
        prof = np.abs(rec.spin_wave[hold])
        drift = np.max(np.linalg.norm(prof - prof[0], axis=1)) / np.linalg.norm(prof[0])
        assert drift < 0.01

    def test_storage_and_recall(self):
        cfg = eit_config(n_atoms=2000.0, omega_c0=15.0)
        pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
        rec = run_eit(cfg, pulse)
        t = rec.times
        dt = rec.grid.dt
        e_in = np.trapezoid(np.abs(rec.input_series[t <= 18.0]) ** 2, dx=dt)
        e_echo = np.trapezoid(np.abs(rec.output_series[t >= 30.0]) ** 2, dx=dt)
        assert e_echo / e_in > 0.6
        # recall preserves time ordering (no reversal): output is delayed,
        # not mirrored, so the echo peak trails the release
        peak = t[np.argmax(np.abs(rec.output_series) * (t >= 30.0))]
        assert peak > 30.0

    def test_group_velocity_scaling(self):
        # transit delay ratio of two runs at control ratio 2 is 4 +/- 10%
        pulse = PulseSpec(kind="gaussian", center=6.0, width=1.5)
        grid = Grid(z_min=0.0, z_max=1.0, nz=256, t_max=40.0, nt=8001)
        delays = []
        for omega in (20.0, 10.0):
            cfg = eit_config(omega_c0=omega, switch_down=300.0, switch_up=301.0,
                             grid=grid)
            rec = run_eit(cfg, pulse)
            t = rec.times
            t_out = np.sum(t * np.abs(rec.output_series) ** 2) / np.sum(
                np.abs(rec.output_series) ** 2)
            t_in = np.sum(t * np.abs(rec.input_series) ** 2) / np.sum(
                np.abs(rec.input_series) ** 2)
            delays.append(t_out - t_in)
        assert delays[1] / delays[0] == pytest.approx(4.0, rel=0.10)


class TestEitPolariton:
    def test_photonic_limit(self):
        cfg = eit_config()
        pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
        rec = run_eit(cfg, pulse, field_stride=500)
        strong = np.full(rec.field_times.shape, 1e9)
        pol = eit_polariton(rec, strong)
        scale = np.max(np.abs(rec.e_field))
        np.testing.assert_allclose(pol / scale, rec.e_field / scale,
                                   rtol=0, atol=1e-6)

    def test_spin_limit(self):
        cfg = eit_config()
        pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
        rec = run_eit(cfg, pulse, field_stride=500)
        dark = np.zeros(rec.field_times.shape)
        pol = eit_polariton(rec, dark)
        np.testing.assert_allclose(
            pol, -math.sqrt(cfg.n_atoms) * rec.spin_wave, rtol=1e-12, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        cfg = eit_config()
        rec = run_eit(cfg, PulseSpec(kind="gaussian", center=8.0, width=2.5),
                      field_stride=500)
        with pytest.raises(ValueError):
            eit_polariton(rec, np.ones(3))
