import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemsim import ConfigError, Grid, GemConfig, PulseSpec, StarkProfile
from gemsim.cli import preset_path
from gemsim.core import make_plane_wave_mode
from gemsim.experiments import load_spec

from conftest import ETA_8MHZ


class TestGrid:
    def test_spacings(self):
        g = Grid(z_min=-3.0, z_max=3.0, nz=4096, t_max=200.0, nt=8001)
        assert g.dz == pytest.approx(6.0 / 4095)
        assert g.dt == pytest.approx(0.025)
        assert g.length == 6.0

    @pytest.mark.parametrize("kw", [
        dict(z_min=1.0, z_max=-1.0, nz=16, t_max=1.0, nt=16),
        dict(z_min=-1.0, z_max=1.0, nz=1, t_max=1.0, nt=16),
        dict(z_min=-1.0, z_max=1.0, nz=16, t_max=0.0, nt=16),
        dict(z_min=-1.0, z_max=1.0, nz=16, t_max=1.0, nt=1),
    ])
    def test_rejects_degenerate(self, kw):
        with pytest.raises(ConfigError):
            Grid(**kw)


class TestGemConfig:
    def test_beta(self):
        cfg = load_spec(preset_path("fig2_abrupt")).config
        assert cfg.beta == pytest.approx(3.3)
        assert cfg.with_beta(0.75).beta == pytest.approx(0.75)

    def test_nyquist_guard_is_an_error(self):
        stark = StarkProfile(eta0=ETA_8MHZ, switch_time=80.0)
        grid = Grid(z_min=-3.0, z_max=3.0, nz=1024, t_max=200.0, nt=8001)
        with pytest.raises(ConfigError, match="Nyquist guard"):
            GemConfig(g=1.0, linear_density=3.3 * ETA_8MHZ, gamma=0.0,
                      stark=stark, grid=grid)

    def test_guard_boundary(self):
        # minimal admissible nz = ceil(|eta0| L t_max / pi) + 2
        stark = StarkProfile(eta0=ETA_8MHZ, switch_time=80.0)
        need = math.ceil(ETA_8MHZ * 6.0 * 200.0 / math.pi) + 2
        grid = Grid(z_min=-3.0, z_max=3.0, nz=need, t_max=200.0, nt=8001)
        GemConfig(g=1.0, linear_density=1.0, gamma=0.0, stark=stark, grid=grid)
        with pytest.raises(ConfigError):
            GemConfig(g=1.0, linear_density=1.0, gamma=0.0, stark=stark,
                      grid=Grid(z_min=-3.0, z_max=3.0, nz=need - 1, t_max=200.0, nt=8001))


class TestStarkProfile:
    def test_abrupt_step(self):
        p = StarkProfile(eta0=2.0, switch_time=10.0)
        assert p.eval(3.0) == pytest.approx(2.0)
        assert p.eval(12.0) == pytest.approx(-2.0)

    def test_tanh_zero_at_switch(self):
        p = StarkProfile(eta0=2.0, switch_time=80.0, ramp_tau=58.0)
        assert p.eval(80.0) == pytest.approx(0.0)
        assert p.eval(22.0) == pytest.approx(2.0 * math.tanh(1.0))

    def test_freeze_interval(self):
        p = StarkProfile(eta0=2.0, switch_time=30.0, freeze_intervals=((10.0, 20.0),))
        assert p.eval(15.0) == 0.0
        assert p.eval(9.0) == pytest.approx(2.0)
        assert p.eval(20.5) == pytest.approx(2.0)

    def test_rejects_bad_freezes(self):
        with pytest.raises(ConfigError):
            StarkProfile(eta0=1.0, switch_time=10.0, freeze_intervals=((5.0, 2.0),))
        with pytest.raises(ConfigError):
            StarkProfile(eta0=1.0, switch_time=10.0,
                         freeze_intervals=((1.0, 5.0), (4.0, 8.0)))

    @given(
        eta0=st.floats(0.5, 10.0),
        switch=st.floats(5.0, 40.0),
        ramp=st.sampled_from([0.0, 2.0, 20.0, 58.0]),
        t0=st.floats(0.0, 50.0),
        span=st.floats(0.01, 30.0),
        freeze_start=st.floats(0.0, 45.0),
        freeze_len=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_slope_integral_matches_quadrature(self, eta0, switch, ramp, t0, span,
                                               freeze_start, freeze_len):
        p = StarkProfile(eta0=eta0, switch_time=switch, ramp_tau=ramp,
                         freeze_intervals=((freeze_start, freeze_start + freeze_len),))
        t1 = t0 + span
        exact = p.slope_integral(t0, t1)
        ts = np.linspace(t0, t1, 40001)
        mid = 0.5 * (ts[1:] + ts[:-1])
        approx = float(np.sum(p.eval(mid)) * (ts[1] - ts[0]))
        assert exact == pytest.approx(approx, abs=2e-4 * eta0 * max(span, 1.0))

    def test_offset_integral(self):
        p = StarkProfile(eta0=1.0, switch_time=10.0, delta_offset=0.5)
        assert p.offset_integral(0.0, 8.0) == 0.0
        assert p.offset_integral(8.0, 12.0) == pytest.approx(1.0)
        assert p.offset_integral(11.0, 13.0) == pytest.approx(1.0)


class TestPulseSpec:
    def test_gaussian_width_convention(self):
        p = PulseSpec(kind="gaussian", center=5.0, width=1.5)
        assert abs(p.evaluate(6.5)) == pytest.approx(math.exp(-1.0))

    def test_modulated_contrast(self):
        p = PulseSpec(kind="modulated", center=0.0, width=4.0, mod_freq=2.0)
        assert p.evaluate(0.0).real == pytest.approx(1.8)

    def test_finite_energy(self):
        p = PulseSpec(kind="modulated", center=7.0, width=3.0, mod_freq=1.9)
        t = np.linspace(0.0, 40.0, 8001)
        e = np.trapezoid(np.abs(p.evaluate(t)) ** 2, dx=t[1] - t[0])
        assert 0.0 < e < np.inf

    @given(
        re=st.floats(-2.0, 2.0), im=st.floats(-2.0, 2.0),
        kind=st.sampled_from(["gaussian", "plane_wave_window"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_amplitude_scaling_is_exact(self, re, im, kind):
        c = complex(re, im)
        if c == 0:
            c = 1.0 + 0j
        if kind == "gaussian":
            base = PulseSpec(kind="gaussian", center=5.0, width=1.5)
        else:
            base = make_plane_wave_mode(3, 2.0, 8.0)
        t = np.linspace(0.0, 10.0, 257)
        np.testing.assert_allclose(base.scaled(c).evaluate(t), c * base.evaluate(t),
                                   rtol=1e-15, atol=1e-300)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            PulseSpec(kind="gaussian", center=1.0, width=0.0)
        with pytest.raises(ConfigError):
            PulseSpec(kind="wiggle")
        with pytest.raises(ConfigError):
            make_plane_wave_mode(2, 5.0, 5.0)
        with pytest.raises(ConfigError):
            make_plane_wave_mode(1.5, 0.0, 10.0)


class TestPlaneWaveModes:
    def test_zeroth_mode_is_flat(self):
        p = make_plane_wave_mode(0, 35.0, 45.0)
        t = np.array([34.9, 35.0, 40.0, 44.99, 45.0])
        v = p.evaluate(t)
        assert v[0] == 0.0 and v[-1] == 0.0
        np.testing.assert_allclose(v[1:4], 1.0 / math.sqrt(10.0), rtol=1e-12)

    def test_orthonormality(self):
        dt = 0.025
        t = 35.0 + dt * np.arange(400)  # the half-open window [35, 45)
        u1 = make_plane_wave_mode(1, 35.0, 45.0).evaluate(t)
        u2 = make_plane_wave_mode(2, 35.0, 45.0).evaluate(t)
        assert abs(np.vdot(u1, u2) * dt) < 1e-10
        assert np.vdot(u1, u1) * dt == pytest.approx(1.0, abs=1e-12)

    @given(
        n=st.integers(-40, 40), m=st.integers(-40, 40),
        t1=st.sampled_from([0.0, 10.0, 35.0]),
        T=st.sampled_from([4.0, 10.0, 40.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_orthonormality_property(self, n, m, t1, T):
        dt = T / 400.0
        t = t1 + dt * np.arange(400)
        un = make_plane_wave_mode(n, t1, t1 + T).evaluate(t)
        um = make_plane_wave_mode(m, t1, t1 + T).evaluate(t)
        ip = np.vdot(um, un) * dt
        expect = 1.0 if n == m else 0.0
        assert ip == pytest.approx(expect, abs=1e-10)

    def test_band_limited_reconstruction(self):
        # project a smooth in-band signal on |n| <= N/2 modes and resum
        t1, t2 = 35.0, 45.0
        T = t2 - t1
        dt = 0.0125
        m = int(round(T / dt))
        t = t1 + dt * np.arange(m)
        sig = np.exp(-(((t - 40.0) / 1.8) ** 2)) * np.exp(0.7j * t)
        n_mod = 80  # modes of a 10 us window in an 8 MHz band
        recon = np.zeros_like(sig, dtype=complex)
        for n in range(-n_mod // 2, n_mod // 2):
            u = make_plane_wave_mode(n, t1, t2).evaluate(t)
            recon += (np.sum(np.conj(u) * sig) * dt) * u
        err = np.linalg.norm(recon - sig) / np.linalg.norm(sig)
        assert err < 0.01
