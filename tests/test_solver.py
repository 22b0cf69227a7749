from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemsim import ConfigError, Grid, PulseSpec, run_gem, solver
from gemsim.core import make_plane_wave_mode
from gemsim.eit import EitConfig, run_eit
from gemsim.experiments import balance_residual
from gemsim.metrics import (_gem_windows, echo_peak_time, efficiency_analytic,
                            efficiency_numeric, shifted_output, window_energy)
from gemsim.solver import NonFiniteFieldError, cumulative_simpson

from conftest import reference_march, small_config, small_pulse


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

    def test_fills_a_non_contiguous_out(self):
        rng = np.random.default_rng(7)
        f = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        buf = np.full((17, 2), np.nan, dtype=complex)
        out = buf[:, 0]
        assert not out.flags.c_contiguous
        assert cumulative_simpson(f, 0.1j, out=out) is out
        assert np.array_equal(out, cumulative_simpson(f, 0.1j))
        assert np.all(np.isnan(buf[:, 1]))

    def test_rejects_an_out_of_another_shape(self):
        f = np.ones(17, dtype=complex)
        for shape in [(16,), (18,), (1, 17), (17, 1)]:
            with pytest.raises(ValueError):
                cumulative_simpson(f, 0.1, out=np.empty(shape, dtype=complex))
        # the kernel is 1-D only: a 2-D f is rejected with or without out
        f2 = np.ones((3, 17), dtype=complex)
        for out in (None, np.empty((3, 17), dtype=complex)):
            with pytest.raises(ValueError):
                cumulative_simpson(f2, 0.1, out=out)

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
        rec = run_gem(cfg, small_pulse(), field_stride=3)
        np.testing.assert_allclose(rec.output_series, rec.input_series,
                                   rtol=0, atol=1e-10)
        assert np.max(np.abs(rec.polarisation)) < 1e-10

    def test_deterministic_reruns(self):
        cfg = small_config()
        a = run_gem(cfg, small_pulse(), field_stride=3)
        b = run_gem(cfg, small_pulse(), field_stride=3)
        assert np.array_equal(a.output_series, b.output_series)
        assert np.array_equal(a.e_field, b.e_field)

    def test_record_carries_the_run_config(self):
        cfg = small_config(beta=0.5, gamma=0.1)
        rec = run_gem(cfg, small_pulse())
        assert rec.config is cfg
        assert not {"linear_density", "g", "gamma", "switch_time"} & set(vars(rec))

    def test_linearity_in_the_input(self):
        cfg = small_config()
        c = 0.7 - 1.3j
        base = run_gem(cfg, small_pulse())
        scaled = run_gem(cfg, replace(small_pulse(), amplitude=c))
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
        rs1 = run_gem(cfg, replace(u1, amplitude=0.6 * u1.amplitude))
        rs2 = run_gem(cfg, replace(u2, amplitude=0.8j * u2.amplitude))
        np.testing.assert_allclose(rs1.output_series + rs2.output_series, out_sum,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(rs1.input_series + rs2.input_series, ein,
                                   rtol=1e-12, atol=1e-14)

    def test_efficiency_against_analytic_small_grid(self):
        for beta in (0.25, 1.0):
            cfg = small_config(beta=beta)
            rec = run_gem(cfg, small_pulse())
            sig = efficiency_numeric(rec, (0.0, 10.0), (15.0, 40.0))
            assert sig == pytest.approx(efficiency_analytic(beta), abs=0.02)

    def test_echo_time_follows_switch(self):
        cfg = small_config(beta=1.0, switch=15.0)
        rec = run_gem(cfg, small_pulse(center=4.0))
        assert echo_peak_time(rec) == pytest.approx(26.0, abs=0.3)

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
        rec = run_gem(small_config(beta=1.0, gamma=gamma, switch=35.0), small_pulse())
        t = rec.times
        m0 = np.argmin(np.abs(t - 10.0))
        m1 = np.argmin(np.abs(t - 30.0))
        ratio = rec.alpha_norm_series[m1] / rec.alpha_norm_series[m0]
        assert ratio == pytest.approx(np.exp(-gamma * 20.0), rel=0.01)

    def test_maxwell_relation_rows(self):
        cfg = small_config(beta=1.0)
        rec = run_gem(cfg, small_pulse(), field_stride=100)
        dz = rec.grid.dz
        for i, tv in enumerate(rec.field_times):
            j = np.argmin(np.abs(rec.times - tv))
            expect = rec.input_series[j] + 1j * rec.config.linear_density * cumulative_simpson(
                rec.polarisation[i], dz)
            np.testing.assert_allclose(rec.e_field[i], expect, rtol=0, atol=1e-12)

    def test_carrier_gauge_equivalence(self):
        cfg = small_config(beta=1.0, switch=20.0, t_max=50.0, nt=4001, nz=160)
        mode = make_plane_wave_mode(2, 6.0, 10.0)
        omega = 2.0 * np.pi * 2 / 4.0
        plain = run_gem(cfg, mode)
        gauged = run_gem(cfg, mode, carrier=omega)
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
        base = run_gem(small_config(beta=1.0), small_pulse())
        offset = run_gem(small_config(beta=1.0, delta_offset=delta), small_pulse())
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


# the three GEM paths a stored row goes through: plain, decaying, and
# carrier gauge (rows multiplied back by the gauge phase)
_ROW_RUNS = {
    "abrupt": lambda **kw: run_gem(small_config(nt=801), small_pulse(), **kw),
    "gamma": lambda **kw: run_gem(small_config(nt=801, gamma=0.3), small_pulse(), **kw),
    "carrier": lambda **kw: run_gem(small_config(nt=801, switch=20.0),
                                    make_plane_wave_mode(2, 6.0, 10.0), carrier=np.pi, **kw),
}


@pytest.mark.parametrize("case", list(_ROW_RUNS))
def test_a_strided_run_is_the_stride_1_run_row_for_row(case):
    # the march walks the rows it keeps in order: every step, strided, the
    # first and the last step alone (a stride of nt - 1 or more), or none
    full = _ROW_RUNS[case](field_stride=1)
    assert full.e_field.shape == full.polarisation.shape == (801, 128)
    for stride in (1, 7, 20, 800, 801, 2**63, None):
        rec = _ROW_RUNS[case](field_stride=stride)
        at = (np.zeros(0, dtype=int) if stride is None
              else np.unique(np.r_[np.arange(0, 801, min(stride, 801)), 800]))
        assert np.array_equal(rec.field_times, full.field_times[at])
        assert rec.e_field.tobytes() == full.e_field[at].tobytes(), stride
        assert rec.polarisation.tobytes() == full.polarisation[at].tobytes(), stride
        assert rec.e_field.shape == rec.polarisation.shape == (at.size, 128)
        assert rec.input_series.tobytes() == full.input_series.tobytes()
        assert rec.output_series.tobytes() == full.output_series.tobytes()
        assert rec.alpha_norm_series.tobytes() == full.alpha_norm_series.tobytes()


_STREAM_RUNS = {
    **_ROW_RUNS,
    "eit": lambda **kw: run_eit(
        EitConfig(n_atoms=400.0, g=1.0, omega_c0=20.0, switch_down=10.0, switch_up=18.0,
                  ramp_tau=1.0, grid=Grid(z_min=0.0, z_max=1.0, nz=128, t_max=22.5, nt=801)),
        PulseSpec(kind="gaussian", center=5.0, width=1.5), **kw),
}


@pytest.mark.parametrize("case", list(_STREAM_RUNS))
def test_streamed_rows_are_the_record_rows_bit_for_bit(case):
    # the march hands its 41 rows (stride 20) on once each, in order, as
    # their stored-row index j; stacked, the rows a consumer copies are the
    # rows a record stores
    run = _STREAM_RUNS[case]
    stored = run(field_stride=20)
    n = stored.field_times.size
    assert n == 41
    names = ["e_field", "polarisation"] + (["spin_wave"] if case == "eit" else [])
    handed, rows = [], []

    def consume(j, *fields):
        handed.append(j)
        rows.append([f.copy() for f in fields])

    streamed = run(field_stride=20, consume=consume)
    assert handed == list(range(n))
    for i, name in enumerate(names):
        assert np.stack([r[i] for r in rows]).tobytes() == getattr(stored, name).tobytes(), name
        assert getattr(streamed, name).shape == (0, 128)
    assert streamed.field_times.size == 0
    assert streamed.output_series.tobytes() == stored.output_series.tobytes()


@pytest.mark.parametrize("case", list(_STREAM_RUNS))
def test_a_handed_row_is_read_only(case):
    # a consumer that writes into a row it is handed fails to, and the run
    # goes on unchanged: its series are those of a run that only reads
    run = _STREAM_RUNS[case]
    reader = run(field_stride=20, consume=lambda j, *fields: None)
    failed = []

    def consume(j, *fields):
        for row in fields:
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                row *= 2.0
        failed.append(j)

    writer = run(field_stride=20, consume=consume)
    assert failed == list(range(41))
    assert writer.output_series.tobytes() == reader.output_series.tobytes()
    assert writer.input_series.tobytes() == reader.input_series.tobytes()


@pytest.mark.parametrize("stride", [0, -1, True, 1.5, "20", np.float64(20.0)])
@pytest.mark.parametrize("case", ["abrupt", "eit"])
def test_a_stride_that_is_not_a_positive_integer_is_rejected(case, stride):
    with pytest.raises(ValueError, match="field_stride must be a positive integer"):
        _STREAM_RUNS[case](field_stride=stride)


def _reference_operators(z_axis, key, dt, gamma, g):
    """Rotations and Filon weights (times i*g) from np.exp and np.expm1."""
    rows = []
    for (slope, offset), damp, span in zip((key[:2], key[2:]), (0.25 * gamma * dt,
                                                                 0.5 * gamma * dt), (0.5 * dt, dt)):
        x = -1j * (z_axis * slope - offset) - damp
        small = np.abs(x) < 1e-8
        xs = np.where(small, 1.0, x)
        w = np.where(small, 1.0 + x / 2.0 + x * x / 6.0, np.expm1(xs) / xs)
        rows.append((np.exp(x), 1j * g * span * w))
    (rot_half, w_half), (rot_full, w_full) = rows
    return np.array([rot_half, rot_full, w_half, w_full])


def _check_operators(z_min, z_max, nz, shift, key, dt, gamma, g=1.0):
    z_axis = np.linspace(z_min, z_max, nz) + shift
    build = solver._operator_builder(z_min + shift, (z_max - z_min) / (nz - 1), nz, dt, gamma, g)
    out = np.full((4, nz), np.nan, dtype=complex)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        assert build(key, out) is out
    ref = _reference_operators(z_axis, key, dt, gamma, g)
    err = np.abs(out - ref) / np.abs(ref)
    assert np.max(err) <= 1e-12, (np.unravel_index(np.argmax(err), err.shape), np.max(err))


class TestClosedFormOperators:
    @settings(max_examples=150, deadline=None)
    @given(nz=st.integers(3, 4096), shift=st.sampled_from([0.0, 0.37, -1.9]),
           slopes=st.tuples(*[st.one_of(st.just(0.0), st.floats(-0.8, 0.8))] * 2),
           offsets=st.tuples(*[st.one_of(st.just(0.0), st.floats(-2.0, 2.0))] * 2),
           gamma=st.sampled_from([0.0, 0.2, 3.0]), dt=st.floats(0.001, 0.1))
    def test_match_exp_and_expm1(self, nz, shift, slopes, offsets, gamma, dt):
        key = [slopes[0], offsets[0], slopes[1], offsets[1]]
        _check_operators(-3.0, 3.0, nz, shift, key, dt, gamma)

    @pytest.mark.parametrize("gamma", [0.0, 0.2])
    def test_theta_zero_on_a_grid_point(self, gamma):
        # odd nz, symmetric cell, D = 0: theta is exactly 0 at the centre site
        assert np.linspace(-1.0, 1.0, 9)[4] == 0.0
        _check_operators(-1.0, 1.0, 9, 0.0, [0.1, 0.0, 0.2, 0.0], 0.01, gamma)

    @pytest.mark.parametrize("theta", [2e-8, -5e-8, 3e-7])
    def test_theta_just_off_zero(self, theta):
        # |theta| just above the series cut at the site nearest the zero
        # crossing: the split must not cancel there (blocks not centred on
        # that site are off by 2e-12 relative in the first two cases)
        nz, slope = 4096, 0.8
        dz = 6.0 / (nz - 1)
        offset = slope * (-3.0 + 2000 * dz) - theta
        _check_operators(-3.0, 3.0, nz, 0.0, [slope, offset, 2 * slope, 2 * offset], 0.01, 0.0)

    @pytest.mark.parametrize("key", [[0.0, 0.0, 0.0, 0.0], [0.0, 0.3, 0.0, 0.6]],
                             ids=["frozen", "frozen_offset"])
    def test_frozen_slope_is_constant(self, key):
        _check_operators(-1.0, 1.0, 64, 0.0, key, 0.01, 0.0)

    def test_fig4_scale(self):
        # nz = 10240 over 6 mm, eta0*dt ~ 0.63 and a carrier shift: |theta| up to ~3.8 rad
        slope = 50.26548245743669 * 0.0125
        _check_operators(-3.0, 3.0, 10240, 2.9, [0.5 * slope, 0.0, slope, 0.0], 0.0125, 0.0)
        _check_operators(-3.0, 3.0, 10240, 2.9, [-0.5 * slope, 0.1, -slope, 0.2], 0.0125, 0.1)


def _count_builds(monkeypatch):
    """(key, address of the output buffer) of every operator build of a run."""
    builds = []
    real = solver._operator_builder

    def counting(*args):
        build = real(*args)

        def wrapped(key, out):
            builds.append((tuple(key), out.__array_interface__["data"][0]))
            return build(key, out)

        return wrapped

    monkeypatch.setattr(solver, "_operator_builder", counting)
    return builds


@pytest.mark.parametrize("config, most", [
    (small_config(), 3),
    # the freeze exit and the switch each add a straddling step: the step
    # from t = 11.975000000000001 ends at t + dt = 12.000000000000002, past
    # the freeze, so its slope integral is 5.7e-15, not 0.0
    (small_config(freeze=((8.0, 12.0),)), 6),
], ids=["abrupt", "freeze"])
def test_plateau_schedules_build_once_per_run_of_equal_keys(monkeypatch, config, most):
    builds = _count_builds(monkeypatch)
    run_gem(config, small_pulse())
    stark, t, dt = config.stark, config.grid.t_axis.tolist(), config.grid.dt
    rows = [(stark.slope_integral(a, 0.5 * dt), stark.offset_integral(a, 0.5 * dt),
             stark.slope_integral(a, dt), stark.offset_integral(a, dt)) for a in t[:-1]]
    runs = [row for n, row in enumerate(rows) if n == 0 or row != rows[n - 1]]
    assert [key for key, _ in builds] == runs
    assert len(runs) <= most
    assert len({address for _, address in builds}) == 1


def test_ramped_schedule_builds_every_step_into_one_buffer(monkeypatch):
    config = small_config(ramp_tau=3.0)
    builds = _count_builds(monkeypatch)
    run_gem(config, small_pulse())
    assert len(builds) == config.grid.nt - 1
    assert len({address for _, address in builds}) == 1


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


@pytest.mark.parametrize("run, config", [
    (run_gem, small_config(switch=6.0, t_max=10.0, nt=201, nz=32)),
    (run_eit, EitConfig(n_atoms=400.0, g=1.0, omega_c0=20.0, switch_down=14.0,
                        switch_up=30.0, ramp_tau=1.0,
                        grid=Grid(z_min=0.0, z_max=1.0, nz=16, t_max=40.0, nt=1601))),
], ids=["gem", "eit"])
def test_each_step_rebuilds_the_field_three_times_through_the_module_global(
        monkeypatch, run, config):
    # perfbench/tracing.py counts solver.cumulative_simpson calls by patching
    # this name: each call must go through it, with the 1-D integrand first
    calls = []
    real = solver.cumulative_simpson

    def counting(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "cumulative_simpson", counting)
    run(config, small_pulse())
    assert len(calls) == 3 * (config.grid.nt - 1)
    for args, kwargs in calls:
        f, _ = args
        assert f.shape == (config.grid.nz,)
        assert set(kwargs) == {"out"} and kwargs["out"].shape == f.shape


# a box on [5, 12) us of 40: exactly zero input before and after it
_BOX = PulseSpec(kind="plane_wave_window", window=(5.0, 12.0))

_TRIM_CASES = {
    "box_abrupt": lambda: (small_config(), _BOX, {}),
    "tanh": lambda: (small_config(ramp_tau=3.0), small_pulse(), {}),
    "carrier_mode": lambda: (small_config(switch=20.0, t_max=50.0, nt=2001, nz=160),
                             make_plane_wave_mode(2, 6.0, 10.0), {"carrier": np.pi}),
    "box_gamma": lambda: (small_config(gamma=0.2), _BOX, {}),
}


@pytest.mark.parametrize("case", sorted(_TRIM_CASES))
def test_the_march_is_its_untrimmed_reference_byte_for_byte(monkeypatch, case):
    # the march halves the corrector weight once per build and skips the
    # add of an exactly zero input sample (every case has some); neither
    # may change a bit
    config, pulse, kwargs = _TRIM_CASES[case]()
    assert (pulse.evaluate(config.grid.t_axis) == 0).any()
    trimmed = run_gem(config, pulse, field_stride=7, **kwargs)
    monkeypatch.setattr(solver, "_march", reference_march)
    reference = run_gem(config, pulse, field_stride=7, **kwargs)
    for name in ("output_series", "alpha_norm_series", "e_field", "polarisation"):
        assert getattr(trimmed, name).tobytes() == getattr(reference, name).tobytes(), name


def _pinned_gem(config, pulse, **kwargs):
    rec = run_gem(config, pulse, **kwargs)
    return rec, efficiency_numeric(rec, *_gem_windows(config))


def _pinned_eit():
    config = EitConfig(n_atoms=5000.0, g=1.0, omega_c0=50.0, switch_down=14.0, switch_up=40.0,
                       ramp_tau=2.0, gamma_e=0.15,
                       grid=Grid(z_min=0.0, z_max=1.0, nz=64, t_max=60.0, nt=6001))
    rec = run_eit(config, PulseSpec(kind="gaussian", center=6.0, width=1.5))
    return rec, efficiency_numeric(rec, (0.0, 14.0), (40.0, 60.0))


_PINNED_RUNS = {
    "abrupt": lambda: _pinned_gem(small_config(), small_pulse()),
    "tanh": lambda: _pinned_gem(small_config(ramp_tau=3.0), small_pulse()),
    "freeze": lambda: _pinned_gem(small_config(freeze=((8.0, 12.0),)), small_pulse()),
    "gamma": lambda: _pinned_gem(small_config(gamma=0.2), small_pulse()),
    "carrier": lambda: _pinned_gem(small_config(switch=20.0, t_max=50.0, nt=2001, nz=160),
                                   make_plane_wave_mode(2, 6.0, 10.0), carrier=np.pi),
    "delta_offset": lambda: _pinned_gem(small_config(delta_offset=0.8), small_pulse()),
    "tanh_gamma_carrier_offset": lambda: _pinned_gem(
        small_config(switch=20.0, t_max=50.0, nt=2001, nz=160, ramp_tau=3.0, gamma=0.05,
                     delta_offset=0.5),
        make_plane_wave_mode(2, 6.0, 10.0), carrier=np.pi),
    "eit": _pinned_eit,
}

# (efficiency, {time: output sample}) of each run above, recorded with the
# stencil-then-cumsum quadrature and per-step arrays the solvers had before
# they were buffered (tanh_gamma_carrier_offset: with the per-step np.exp and
# expm1 operators the closed-form build replaced); the discretisation is the
# same, so only rounding moves.
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
    "tanh_gamma_carrier_offset": (0.24772443653359824, {
        7.0: (0.12810416572044203-0.02637812210166074j),
        9.0: (-0.040376620911502285-0.0021820500210521752j),
        33.0: (0.14096786944656345-0.18542860280683482j),
        34.0: (-0.2621662496204284+0.09371013711797184j),
        35.0: (0.13025579730711453-0.007347663580214725j),
    }),
    "eit": (0.9729649179423318, {
        46.0: (0.3971527391438509+0j),
        47.0: (0.7766957218988918+0j),
        48.0: (0.9043095128279959+0j),
        49.0: (0.4761050903097791+0j),
        50.0: (-0.027652712841195495+0j),
    }),
}


# alpha_norm_series samples of three runs above, recorded before the norm
# was summed by einsum (it was np.sum of the squared real view)
_PINNED_NORMS = {
    "abrupt": {
        3.0: 0.017943202516335702, 5.0: 0.3574643802567157, 12.0: 0.37528617572300615,
        25.0: 0.3571527745343504, 26.0: 0.19165158902792556, 27.0: 0.020661658616067034,
    },
    "gamma": {
        3.0: 0.017078628161152475, 5.0: 0.2907168703649276, 12.0: 0.07631358932456639,
        25.0: 0.005319504217245031, 26.0: 0.0021541409351254095, 27.0: 0.0001643760630356824,
    },
    "carrier": {
        7.0: 0.056006285350078476, 9.0: 0.18534643639500958, 15.0: 0.2381722781239375,
        33.0: 0.14765534733583235, 34.0: 0.08359274847051144, 35.0: 0.04601487779460319,
    },
}


@pytest.mark.parametrize("case", list(_PINNED_NORMS))
def test_alpha_norm_series_is_pinned(case):
    rec, _ = _PINNED_RUNS[case]()
    for t, ref in _PINNED_NORMS[case].items():
        i = int(np.argmin(np.abs(rec.times - t)))
        assert rec.alpha_norm_series[i] == pytest.approx(ref, rel=1e-12, abs=0), t


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
        coarse = run_gem(cfg, small_pulse())
        fine = run_gem(small_config(beta=1.0, nt=3201, nz=256), small_pulse())
        e0, e1 = (window_energy(r.times, r.output_series, (15.0, 40.0), r.grid.dt)
                  for r in (coarse, fine))
        assert abs(e1 - e0) / e1 < 0.005


class _Reweighted:
    """A pulse times exp(rate*t/2): run_gem reads a pulse only through evaluate."""

    def __init__(self, pulse, rate):
        self.pulse, self.rate = pulse, rate

    def evaluate(self, t):
        return self.pulse.evaluate(t) * np.exp(0.5 * self.rate * np.asarray(t))


# (schedule and readout offset, input, carrier) of each decay-identity case
_DECAY_CASES = {
    "abrupt": ({}, small_pulse(), 0.0),
    "tanh": ({"ramp_tau": 1.0}, small_pulse(), 0.0),
    "freeze": ({"freeze": ((8.0, 12.0),)}, small_pulse(), 0.0),
    "carrier": ({"switch": 20.0}, make_plane_wave_mode(2, 6.0, 10.0), np.pi),
    "delta": ({"delta_offset": 0.8}, small_pulse(), 0.0),
}


@pytest.mark.parametrize("case", list(_DECAY_CASES))
def test_decay_is_the_gauge_of_the_reweighted_undamped_run(case):
    # decay is uniform in z and t, so alpha*exp(gamma*t/2) and E*exp(gamma*t/2)
    # obey the gamma = 0 equations with input E_in*exp(gamma*t/2): the
    # decaying output is exp(-gamma*t/2) times that run's output.  The
    # scheme keeps the identity to second order in dt.
    stark, pulse, carrier = _DECAY_CASES[case]
    gamma = 0.02
    errors = []
    for nt in (401, 801, 1601, 3201):
        cfg = small_config(nt=nt, gamma=gamma, **stark)
        decayed = run_gem(cfg, pulse, carrier=carrier)
        undamped = run_gem(replace(cfg, gamma=0.0), _Reweighted(pulse, gamma), carrier=carrier)
        t = decayed.times
        after = t > cfg.stark.switch_time
        gauged = undamped.output_series[after] * np.exp(-0.5 * gamma * t[after])
        out = decayed.output_series[after]
        errors.append(np.linalg.norm(out - gauged) / np.linalg.norm(out))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((ratios > 3.5) & (ratios < 4.5)), ratios
    assert errors[2] < 1e-5, errors


class TestOutputEnergy:
    def test_zero_field(self):
        cfg = small_config()
        rec = run_gem(cfg, small_pulse())
        # before the pulse arrives the output is essentially dark
        assert window_energy(rec.times, rec.output_series, (30.0, 40.0), rec.grid.dt) > 0.0
        with pytest.raises(ValueError):
            efficiency_numeric(rec, (0.0, 10.0), (10.0, 5.0))

    def test_unit_pulse_normalization(self):
        cfg = small_config(switch=20.0, t_max=50.0, nt=2001, nz=160)
        rec = run_gem(cfg, make_plane_wave_mode(0, 6.0, 10.0))
        e_in = np.trapezoid(np.abs(rec.input_series) ** 2, dx=rec.grid.dt)
        assert e_in == pytest.approx(1.0, abs=0.01)
