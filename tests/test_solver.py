import numpy as np
import pytest

from gemsim import ConfigError, Grid, PulseSpec, run_gem, output_energy
from gemsim.core import make_plane_wave_mode
from gemsim.eit import EitConfig, run_eit
from gemsim.experiments import balance_residual
from gemsim.metrics import efficiency_analytic, efficiency_numeric, shifted_output, window_energy
from gemsim.solver import NonFiniteFieldError, cumulative_simpson

from conftest import small_config, small_pulse


def stencil_cumulative_simpson(f, dx):
    """The [-1, 13, 13, -1]/24 stencil closed by one-sided parabolas, summed."""
    inc = np.zeros_like(f)
    inc[1] = (5.0 * f[0] + 8.0 * f[1] - f[2]) / 12.0
    inc[2:-1] = (-f[:-3] + 13.0 * f[1:-2] + 13.0 * f[2:-1] - f[3:]) / 24.0
    inc[-1] = (5.0 * f[-1] + 8.0 * f[-2] - f[-3]) / 12.0
    return dx * np.cumsum(inc)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("dx", [0.01, 0.02 + 0.003j], ids=["real_dx", "complex_dx"])
    @pytest.mark.parametrize("n", [3, 4, 5, 17, 4096])
    def test_matches_the_stencil(self, n, dx):
        rng = np.random.default_rng(n)
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f_before = f.copy()
        expect = stencil_cumulative_simpson(f, dx)
        tol = 1e-13 * np.max(np.abs(expect))
        np.testing.assert_allclose(cumulative_simpson(f, dx), expect, rtol=0, atol=tol)
        out = np.full(n, np.nan, dtype=complex)
        assert cumulative_simpson(f, dx, out=out) is out
        np.testing.assert_allclose(out, expect, rtol=0, atol=tol)
        assert np.array_equal(f, f_before)

    def test_integrates_along_the_last_axis(self):
        f = np.random.default_rng(1).standard_normal((3, 17))
        got = cumulative_simpson(f, 0.1)
        for row, f_row in zip(got, f):
            np.testing.assert_allclose(row, cumulative_simpson(f_row, 0.1), rtol=0, atol=1e-15)

    def test_polynomial_exact(self):
        x = np.linspace(0.0, 2.0, 41)
        f = 3.0 * x**2 - 2.0 * x + 1.0
        exact = x**3 - x**2 + x
        np.testing.assert_allclose(cumulative_simpson(f, x[1] - x[0]), exact, atol=1e-12)

    def test_oscillatory_accuracy_beats_trapezoid(self):
        x = np.linspace(0.0, 10.0, 2001)
        dx = x[1] - x[0]
        k = 0.8 / dx
        f = np.exp(1j * k * x)
        exact = (np.exp(1j * k * x) - 1.0) / (1j * k)
        err = np.max(np.abs(cumulative_simpson(f, dx) - exact)) * k
        inc = np.empty_like(f)
        inc[0] = 0.0
        inc[1:] = 0.5 * dx * (f[1:] + f[:-1])
        err_trap = np.max(np.abs(np.cumsum(inc) - exact)) * k
        assert err < 0.025
        assert err < err_trap / 3.0


class TestRunGem:
    def test_no_coupling_passes_input_through(self):
        cfg = small_config(beta=1.0)
        # g -> tiny emulates the decoupled limit within the beta > 0 invariant
        cfg = type(cfg)(g=1e-12, linear_density=cfg.linear_density, gamma=0.0,
                        stark=cfg.stark, grid=cfg.grid)
        rec = run_gem(cfg, small_pulse())
        np.testing.assert_allclose(rec.output_series, rec.input_series,
                                   rtol=0, atol=1e-10)
        assert np.max(np.abs(rec.polarisation)) < 1e-10

    def test_deterministic_reruns(self):
        cfg = small_config()
        a = run_gem(cfg, small_pulse())
        b = run_gem(cfg, small_pulse())
        assert np.array_equal(a.output_series, b.output_series)
        assert np.array_equal(a.e_field, b.e_field)

    def test_linearity_in_the_input(self):
        cfg = small_config()
        c = 0.7 - 1.3j
        base = run_gem(cfg, small_pulse())
        scaled = run_gem(cfg, small_pulse().scaled(c))
        np.testing.assert_allclose(scaled.output_series, c * base.output_series,
                                   rtol=1e-12, atol=1e-14)

    def test_superposition(self):
        cfg = small_config(switch=20.0, t_max=50.0, nt=2001, nz=160)
        u1 = make_plane_wave_mode(0, 6.0, 10.0)
        u2 = make_plane_wave_mode(1, 6.0, 10.0)
        r1 = run_gem(cfg, u1)
        r2 = run_gem(cfg, u2)
        mix = PulseSpec(kind="plane_wave_window", mode_index=0, window=(6.0, 10.0))
        out_sum = 0.6 * r1.output_series + 0.8j * r2.output_series
        ein = 0.6 * r1.input_series + 0.8j * r2.input_series
        # run the superposed input through a custom callable is not part of
        # the API; linearity is asserted via the two scaled runs instead
        rs1 = run_gem(cfg, u1.scaled(0.6))
        rs2 = run_gem(cfg, u2.scaled(0.8j))
        np.testing.assert_allclose(rs1.output_series + rs2.output_series, out_sum,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(rs1.input_series + rs2.input_series, ein,
                                   rtol=1e-12, atol=1e-14)

    def test_efficiency_against_analytic_small_grid(self):
        for beta in (0.25, 1.0):
            cfg = small_config(beta=beta)
            rec = run_gem(cfg, small_pulse(), store_fields=False)
            sig = efficiency_numeric(rec, (0.0, 10.0), (15.0, 40.0))
            assert sig == pytest.approx(efficiency_analytic(beta), abs=0.02)

    def test_echo_time_follows_switch(self):
        cfg = small_config(beta=1.0, switch=15.0)
        rec = run_gem(cfg, small_pulse(center=4.0), store_fields=False)
        assert rec.echo_peak_time() == pytest.approx(26.0, abs=0.3)

    def test_excitation_balance(self):
        rec = run_gem(small_config(beta=1.0), small_pulse())
        assert balance_residual(rec) < 0.01

    def test_alpha_norm_conserved_during_storage(self):
        rec = run_gem(small_config(beta=1.0), small_pulse())
        t = rec.times
        window = (t > 10.0) & (t < 14.0)  # input gone, echo not yet
        a = rec.alpha_norm_series[window]
        assert np.ptp(a) / np.max(a) < 1e-3

    def test_gamma_decay_rate(self):
        gamma = 0.2
        rec = run_gem(small_config(beta=1.0, gamma=gamma, switch=35.0),
                      small_pulse(), store_fields=False)
        t = rec.times
        m0 = np.argmin(np.abs(t - 10.0))
        m1 = np.argmin(np.abs(t - 30.0))
        ratio = rec.alpha_norm_series[m1] / rec.alpha_norm_series[m0]
        assert ratio == pytest.approx(np.exp(-gamma * 20.0), rel=0.01)

    def test_maxwell_relation_rows(self):
        rec = run_gem(small_config(beta=1.0), small_pulse(), field_stride=100)
        dz = rec.grid.dz
        for i, tv in enumerate(rec.field_times):
            j = np.argmin(np.abs(rec.times - tv))
            expect = rec.input_series[j] + 1j * rec.linear_density * cumulative_simpson(
                rec.polarisation[i], dz)
            np.testing.assert_allclose(rec.e_field[i], expect, rtol=0, atol=1e-12)

    def test_carrier_gauge_equivalence(self):
        cfg = small_config(beta=1.0, switch=20.0, t_max=50.0, nt=4001, nz=160)
        mode = make_plane_wave_mode(2, 6.0, 10.0)
        omega = 2.0 * np.pi * 2 / 4.0
        plain = run_gem(cfg, mode, store_fields=False)
        gauged = run_gem(cfg, mode, store_fields=False, carrier=omega)
        np.testing.assert_allclose(gauged.input_series, plain.input_series,
                                   rtol=0, atol=1e-12)
        scale = np.max(np.abs(plain.output_series))
        np.testing.assert_allclose(gauged.output_series / scale,
                                   plain.output_series / scale,
                                   rtol=0, atol=5e-4)

    def test_delta_offset_equals_gauge_shift(self):
        # the in-profile offset and the post-hoc phase are the same dynamics
        # in two discretizations; they agree to O((delta*dt)^2) per step
        delta = 0.8
        base = run_gem(small_config(beta=1.0), small_pulse(), store_fields=False)
        offset = run_gem(small_config(beta=1.0, delta_offset=delta), small_pulse(),
                         store_fields=False)
        scale = np.max(np.abs(base.output_series))
        np.testing.assert_allclose(offset.output_series / scale,
                                   shifted_output(base, delta) / scale,
                                   rtol=0, atol=1e-3)

    def test_time_step_guard(self):
        with pytest.raises(ConfigError, match="exchange"):
            run_gem(small_config(beta=200.0, nz=4096), small_pulse())

    def test_records_are_readonly(self):
        rec = run_gem(small_config(), small_pulse())
        with pytest.raises(ValueError):
            rec.output_series[0] = 0.0


@pytest.mark.parametrize("run, config", [
    (run_gem, small_config()),
    (run_eit, EitConfig(n_atoms=400.0, g=1.0, omega_c0=20.0, switch_down=14.0,
                        switch_up=30.0, ramp_tau=1.0,
                        grid=Grid(z_min=0.0, z_max=1.0, nz=64, t_max=40.0, nt=1601))),
], ids=["gem", "eit"])
def test_non_finite_input_stops_at_the_first_bad_step(run, config):
    # zero before t = 10 us, NaN from then on
    pulse = PulseSpec(kind="plane_wave_window", amplitude=float("nan"), window=(10.0, 20.0))
    t = config.grid.t_axis
    first = int(np.argmax(t >= 10.0))
    with pytest.raises(NonFiniteFieldError) as info:
        run(config, pulse)
    assert info.value.time_index == first > 0
    assert info.value.time == t[first]


def _pinned_gem(config, pulse, **kwargs):
    rec = run_gem(config, pulse, store_fields=False, **kwargs)
    ts, t_max = config.stark.switch_time, config.grid.t_max
    return rec, efficiency_numeric(rec, (0.0, ts), (ts, t_max))


def _pinned_eit():
    config = EitConfig(n_atoms=5000.0, g=1.0, omega_c0=50.0, switch_down=14.0, switch_up=40.0,
                       ramp_tau=2.0, gamma_e=0.15,
                       grid=Grid(z_min=0.0, z_max=1.0, nz=64, t_max=60.0, nt=6001))
    rec = run_eit(config, PulseSpec(kind="gaussian", center=6.0, width=1.5))
    t, dt = rec.times, rec.grid.dt
    sigma = (window_energy(t, rec.output_series, (40.0, 60.0), dt)
             / window_energy(t, rec.input_series, (0.0, 14.0), dt))
    return rec, sigma


_PINNED_RUNS = {
    "abrupt": lambda: _pinned_gem(small_config(), small_pulse()),
    "tanh": lambda: _pinned_gem(small_config(ramp_tau=3.0), small_pulse()),
    "freeze": lambda: _pinned_gem(small_config(freeze=((8.0, 12.0),)), small_pulse()),
    "gamma": lambda: _pinned_gem(small_config(gamma=0.2), small_pulse()),
    "carrier": lambda: _pinned_gem(small_config(switch=20.0, t_max=50.0, nt=2001, nz=160),
                                   make_plane_wave_mode(2, 6.0, 10.0), carrier=np.pi),
    "delta_offset": lambda: _pinned_gem(small_config(delta_offset=0.8), small_pulse()),
    "eit": _pinned_eit,
}

# (efficiency, {time: output sample}) of each run above, recorded with the
# stencil-then-cumsum quadrature and per-step arrays the solvers had before
# they were buffered; the discretisation is the same, so only rounding moves.
_PINNED = {
    "abrupt": (0.9962692137449586, {
        3.0: (0.03780718735097727-5.8462500865962864e-06j),
        5.0: (0.00915556436119952+6.358233120033486e-06j),
        25.0: (0.10965419854283108+0.48937364326879357j),
        26.0: (0.2587795165575749+0.9504824241464702j),
        27.0: (0.27934395897615966+0.43737736741711103j),
    }),
    "tanh": (0.9962992272901595, {
        3.0: (0.03775017611824677-9.77879904085128e-07j),
        5.0: (0.009034136390187408+1.970184539770847e-05j),
        25.0: (0.17433977477009696+0.47204804687963225j),
        26.0: (0.35483782412816395+0.9183971190773113j),
        27.0: (0.3142961788228661+0.4121228377743418j),
    }),
    "freeze": (0.9962672468708167, {
        3.0: (0.03780718735097727-5.8462500865962864e-06j),
        5.0: (0.00915556436119952+6.358233120033486e-06j),
        21.0: (0.22532123946280708+0.4583601810831785j),
        22.0: (0.3168121015252732+0.9289864537575194j),
        23.0: (0.26725691959737424+0.4412947999201395j),
    }),
    "gamma": (0.012560011833789625, {
        3.0: (0.039872904888379745-5.778609282307669e-06j),
        5.0: (0.009676950278899532+6.303699158092949e-06j),
        25.0: (0.013575898258630566+0.06631096243583869j),
        26.0: (0.028741839443599534+0.10546269366406115j),
        27.0: (0.02625923863617468+0.03934851418003297j),
    }),
    "carrier": (0.8784182531263318, {
        7.0: (0.1307777225564246-0.024554994807389263j),
        9.0: (-0.04563275548014734-0.0014657700118546214j),
        33.0: (0.2029104869845434-0.38329295967029076j),
        34.0: (-0.2904196144634841+0.4595620296049389j),
        35.0: (0.09058997426017287-0.24384099293489547j),
    }),
    "delta_offset": (0.9962798953770896, {
        3.0: (0.03780718735097727-5.8462500865962864e-06j),
        5.0: (0.00915556436119952+6.358233120033486e-06j),
        25.0: (-0.5002031289946437+0.037185702674887244j),
        26.0: (-0.7657383543413407-0.619719578423769j),
        27.0: (-0.19868929427511817-0.4793456883898925j),
    }),
    "eit": (0.9729649179423318, {
        46.0: (0.3971527391438509+0j),
        47.0: (0.7766957218988918+0j),
        48.0: (0.9043095128279959+0j),
        49.0: (0.4761050903097791+0j),
        50.0: (-0.027652712841195495+0j),
    }),
}


@pytest.mark.parametrize("case", list(_PINNED))
def test_output_series_and_efficiency_are_pinned(case):
    rec, sigma = _PINNED_RUNS[case]()
    sigma_ref, samples = _PINNED[case]
    assert sigma == pytest.approx(sigma_ref, rel=1e-11, abs=0)
    for t, ref in samples.items():
        i = int(np.argmin(np.abs(rec.times - t)))
        assert rec.output_series[i] == pytest.approx(ref, rel=1e-11, abs=0), t


class TestConvergence:
    def test_refining_grid_changes_echo_energy_little(self):
        cfg = small_config(beta=1.0)
        coarse = run_gem(cfg, small_pulse(), store_fields=False)
        fine = run_gem(small_config(beta=1.0, nt=3201, nz=256), small_pulse(),
                       store_fields=False)
        e0 = output_energy(coarse, (15.0, 40.0))
        e1 = output_energy(fine, (15.0, 40.0))
        assert abs(e1 - e0) / e1 < 0.005


class TestOutputEnergy:
    def test_zero_field(self):
        cfg = small_config()
        rec = run_gem(cfg, small_pulse(), store_fields=False)
        # before the pulse arrives the output is essentially dark
        assert output_energy(rec, (30.0, 40.0)) > 0.0
        with pytest.raises(ValueError):
            output_energy(rec, (10.0, 5.0))
        with pytest.raises(ValueError):
            output_energy(rec, (-1.0, 5.0))

    def test_unit_pulse_normalization(self):
        cfg = small_config(switch=20.0, t_max=50.0, nt=2001, nz=160)
        rec = run_gem(cfg, make_plane_wave_mode(0, 6.0, 10.0), store_fields=False)
        e_in = np.trapezoid(np.abs(rec.input_series) ** 2, dx=rec.grid.dt)
        assert e_in == pytest.approx(1.0, abs=0.01)
