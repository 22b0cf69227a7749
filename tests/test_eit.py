import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from gemsim import ConfigError, Grid, PulseSpec, eit
from gemsim.eit import EitConfig, _pair_propagator, eit_polariton, omega_c_schedule, run_eit

from conftest import reference_march


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


# n_atoms = 2000 needs dt <= 2*pi*2/2000 us for the exchange guard
DENSE_GRID = Grid(z_min=0.0, z_max=1.0, nz=256, t_max=45.0, nt=9001)


class TestPairPropagator:
    @pytest.mark.parametrize("span", [0.000375, 0.0015, 0.05, 0.5])
    def test_matches_expm_below_at_and_above_the_critical_control(self, span):
        # mu = sqrt(1/4 - w^2) is real below w = 1/2, zero at it and
        # imaginary above; the table takes all three in one array pass
        omega = np.array([0.0, 0.2, 0.4999999, 0.5, 0.5000001, 0.7, 3.0, 50.0])
        a11, a12, a22 = _pair_propagator(omega, span)
        for i, w in enumerate(omega.tolist()):
            want = expm(span * np.array([[-1.0, 1j * w], [1j * w, 0.0]]))
            got = np.array([[a11[i], a12[i]], [a12[i], a22[i]]])
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-300)


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
        with pytest.raises(ConfigError, match="exchange"):
            eit_config(n_atoms=2000.0)  # g^2*N*dtau/(2*pi) = 3.18 on the default grid


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

    def test_ramp_below_float_range_is_the_abrupt_control(self):
        # (t - switch)/ramp overflows: the abrupt-switch control, with no warning
        t = np.array([13.9, 14.1, 29.9, 30.1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(omega_c_schedule(eit_config(ramp_tau=5e-324), t),
                                          omega_c_schedule(eit_config(ramp_tau=0.0), t))


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
        cfg = eit_config(n_atoms=2000.0, omega_c0=15.0, grid=DENSE_GRID)  # delay ~ 8.9 us
        pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
        rec = run_eit(cfg, pulse, field_stride=17)
        hold = (rec.field_times > 18.0) & (rec.field_times < 28.0)
        prof = np.abs(rec.spin_wave[hold])
        drift = np.max(np.linalg.norm(prof - prof[0], axis=1)) / np.linalg.norm(prof[0])
        assert drift < 0.01

    def test_storage_and_recall(self):
        cfg = eit_config(n_atoms=2000.0, omega_c0=15.0, grid=DENSE_GRID)
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


def test_a_strided_run_is_the_stride_1_run_row_for_row():
    cfg = eit_config(grid=Grid(z_min=0.0, z_max=1.0, nz=64, t_max=45.0, nt=2001))
    pulse = PulseSpec(kind="gaussian", center=8.0, width=2.5)
    full = run_eit(cfg, pulse, field_stride=1)
    for stride in (7, 20, 2000, 2001, 2**63, None):
        rec = run_eit(cfg, pulse, field_stride=stride)
        at = (np.zeros(0, dtype=int) if stride is None
              else np.unique(np.r_[np.arange(0, 2001, min(stride, 2001)), 2000]))
        assert np.array_equal(rec.field_times, full.field_times[at])
        for name in ("e_field", "polarisation", "spin_wave"):
            assert getattr(rec, name).tobytes() == getattr(full, name)[at].tobytes(), name
            assert getattr(rec, name).shape == (at.size, 64)
        assert rec.input_series.tobytes() == full.input_series.tobytes()
        assert rec.output_series.tobytes() == full.output_series.tobytes()


@pytest.mark.parametrize("pulse", [
    PulseSpec(kind="modulated", center=7.0, width=3.0, mod_freq=1.8849555921538759),
    PulseSpec(kind="plane_wave_window", window=(2.0, 10.0)),  # exactly zero outside
], ids=["fig3_modulated", "box"])
def test_the_march_is_its_untrimmed_reference_byte_for_byte(monkeypatch, pulse):
    # fig3_eit's medium and control on a shorter, coarser grid
    cfg = EitConfig(n_atoms=5000.0, g=1.0, omega_c0=50.0, switch_down=14.0, switch_up=40.0,
                    ramp_tau=2.0, gamma_e=0.15,
                    grid=Grid(z_min=0.0, z_max=1.0, nz=64, t_max=60.0, nt=6001))
    trimmed = run_eit(cfg, pulse, field_stride=20)
    monkeypatch.setattr(eit, "_march", reference_march)
    reference = run_eit(cfg, pulse, field_stride=20)
    for name in ("output_series", "e_field", "polarisation", "spin_wave"):
        assert getattr(trimmed, name).tobytes() == getattr(reference, name).tobytes(), name


class TestEitPolariton:
    # an abrupt control is exactly omega_c0 on its bright plateaus and
    # exactly 0 while dark, so the record's config sets each limit
    @staticmethod
    def _abrupt_run():
        cfg = eit_config(ramp_tau=0.0)
        rec = run_eit(cfg, PulseSpec(kind="gaussian", center=8.0, width=2.5),
                      field_stride=500)
        t = rec.field_times
        dark = (t >= cfg.switch_down) & (t < cfg.switch_up)
        assert dark.any() and not dark.all()
        return rec, dark

    def test_photonic_limit(self):
        rec, dark = self._abrupt_run()
        strong = replace(rec.config, omega_c0=1e9)
        pol = eit_polariton(strong, rec.field_times[~dark], rec.e_field[~dark],
                            rec.spin_wave[~dark])
        scale = np.max(np.abs(rec.e_field))
        np.testing.assert_allclose(pol / scale, rec.e_field[~dark] / scale,
                                   rtol=0, atol=1e-6)

    def test_spin_limit(self):
        rec, dark = self._abrupt_run()
        pol = eit_polariton(rec.config, rec.field_times[dark], rec.e_field[dark],
                            rec.spin_wave[dark])
        np.testing.assert_allclose(
            pol, -math.sqrt(rec.config.n_atoms) * rec.spin_wave[dark], rtol=1e-12, atol=1e-15)

    def test_rows_are_the_full_map_rows_bit_for_bit(self):
        cfg = eit_config()
        rec = run_eit(cfg, PulseSpec(kind="gaussian", center=8.0, width=2.5),
                      field_stride=500)
        t, e, s = rec.field_times, rec.e_field, rec.spin_wave
        full = eit_polariton(cfg, t, e, s)
        for i in range(t.size):
            rows = slice(i, i + 1)
            assert np.array_equal(eit_polariton(cfg, t[rows], e[rows], s[rows]), full[rows])
