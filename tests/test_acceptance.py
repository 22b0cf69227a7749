"""Acceptance criteria, one test per criterion at preset resolution.

Each test prints one pass/fail line; run with `pytest tests/test_acceptance.py
-v -s` to see them.  The fig2 records and the beta sweep build on the
fig2_abrupt and fig2_tanh presets; the mode sweeps of criteria 4 and 5 run
the fig4_quick preset (a stratified 16-mode subsample plus both band-edge
modes at two depths); the full 80-mode grid is the packaged fig4_sweep
preset (a long job intended for nightly runs).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from gemsim import (
    Grid,
    GemConfig,
    PulseSpec,
    StarkProfile,
    run_gem,
    to_kspace,
)
from gemsim.cli import preset_path
from gemsim.experiments import (
    envelope_correlation,
    input_spectrum_correlation,
    load_spec,
    run_experiment,
)
from gemsim.kspace import centroid_series, k_centroid, phi_residual, polariton_norm
from gemsim.metrics import (
    echo_peak_time,
    efficiency_analytic,
    efficiency_numeric,
    fidelity,
    find_delta,
    mode_fidelity_sweep,
)
from gemsim.eit import run_eit
from gemsim.experiments import balance_residual

WORKERS = 2

# medium for the long [10,70] us interval: the late switch keeps the
# residual readout phase nearly linear across the signal
ETA_LONG = 2.0 * math.pi * 6.0 / 3.0
LONG_INTERVAL = (10.0, 70.0)


def long_config(beta: float, nt: int = 24801) -> GemConfig:
    stark = StarkProfile(eta0=ETA_LONG, switch_time=150.0)
    grid = Grid(z_min=-3.0, z_max=3.0, nz=8192, t_max=310.0, nt=nt)
    return GemConfig(g=1.0, linear_density=beta * ETA_LONG, gamma=0.0,
                     stark=stark, grid=grid)


def beta_sweep_sigmas(nz: int, nt: int) -> dict:
    betas = (0.1, 0.25, 0.5, 0.75, 1.0, 2.0, 3.3)
    fig2 = load_spec(preset_path("fig2_abrupt"))
    config = replace(fig2.config, grid=replace(fig2.config.grid, nz=nz, nt=nt))
    out = {}
    for beta in betas:
        rec = run_gem(config.with_beta(beta), fig2.pulse, field_stride=nt - 1)
        out[beta] = efficiency_numeric(rec, fig2.params["input_window"],
                                       fig2.params["echo_window"])
    return out


@pytest.fixture(scope="module")
def fig2():
    return load_spec(preset_path("fig2_abrupt"))


@pytest.fixture(scope="module")
def fig4_quick():
    return load_spec(preset_path("fig4_quick"))


@pytest.fixture(scope="module")
def preset_sigmas(fig2):
    return beta_sweep_sigmas(nz=fig2.config.grid.nz, nt=fig2.config.grid.nt)


@pytest.fixture(scope="module")
def sweep_rows(fig4_quick):
    """Criterion 4/5 shared sweep: the fig4_quick preset, rows by beta.

    Its mode band is 8 MHz while the Stark span is 48 MHz, so the sharp
    window tails of every in-band mode stay inside the medium faces."""
    p = fig4_quick.params
    rows = mode_fidelity_sweep(fig4_quick.config, p["interval"], p["betas"],
                               p["mode_indices"], delta=p["delta"], workers=WORKERS)
    return {beta: [r for r in rows if r.beta == beta] for beta in p["betas"]}


def test_criterion_1_efficiency_oracle(preset_sigmas):
    worst = max(abs(sig - efficiency_analytic(beta))
                for beta, sig in preset_sigmas.items())
    ok = worst < 0.02
    print(f"[criterion 1] {'PASS' if ok else 'FAIL'}: "
          f"max |sigma_numeric - (1-e^-2pi*beta)^2| = {worst:.2e} (< 0.02)")
    assert ok


def test_criterion_2_switching_insensitivity(fig2, fig2_abrupt_record, fig2_tanh_record):
    win_in, win_echo = fig2.params["input_window"], fig2.params["echo_window"]
    vals = {}
    for name, rec in (("abrupt", fig2_abrupt_record), ("tanh", fig2_tanh_record)):
        sig = efficiency_numeric(rec, win_in, win_echo)
        rep = fidelity(rec.input_series, rec.output_series, rec.grid.dt, sig,
                       echo_window=win_echo)
        vals[name] = (sig, rep.fidelity)
    dsig = abs(vals["abrupt"][0] - vals["tanh"][0]) / vals["abrupt"][0]
    df = abs(vals["abrupt"][1] - vals["tanh"][1]) / vals["abrupt"][1]
    ok = dsig < 0.01 and df < 0.01
    print(f"[criterion 2] {'PASS' if ok else 'FAIL'}: abrupt vs tanh(58us) "
          f"d_sigma = {dsig:.2e}, d_F = {df:.2e} (< 0.01)")
    assert ok


def test_criterion_3_echo_timing(fig2_abrupt_record):
    peak = echo_peak_time(fig2_abrupt_record)
    ok = abs(peak - 155.0) <= 1.0
    print(f"[criterion 3] {'PASS' if ok else 'FAIL'}: echo peak at "
          f"{peak:.3f} us (155 +/- 1)")
    assert ok


def test_criterion_4_multimode_fidelity(fig4_quick, sweep_rows):
    worst = min(r.fidelity for beta in (0.75, 3.0) for r in sweep_rows[beta])
    delta_used = {beta: sweep_rows[beta][0].delta for beta in sweep_rows}
    ok = worst > 0.99
    print(f"[criterion 4] {'PASS' if ok else 'FAIL'}: min F over "
          f"{len(fig4_quick.params['mode_indices'])} modes (edges included) at beta >= 0.75 = "
          f"{worst:.5f} (> 0.99); readout offsets {delta_used}")
    assert ok


def test_criterion_5_degradation_and_repair(sweep_rows):
    reference = min(r.fidelity for r in sweep_rows[3.0])
    cfg = long_config(3.0)
    res = find_delta(cfg, LONG_INTERVAL, probe_mode=0, search_halfwidth=2.0 * math.pi)
    degraded = res.fidelity_at_zero
    repaired = res.fidelity
    # end-to-end verification: rerun the probe with the offset applied in
    # the Stark schedule itself and remeasure
    stark = replace(cfg.stark, delta_offset=res.delta)
    cfg_delta = GemConfig(g=cfg.g, linear_density=cfg.linear_density,
                          gamma=cfg.gamma, stark=stark, grid=cfg.grid)
    pulse = PulseSpec(kind="plane_wave_window", mode_index=0, window=LONG_INTERVAL)
    rec = run_gem(cfg_delta, pulse, field_stride=cfg.grid.nt - 1)
    sig = efficiency_numeric(rec, (0.0, 150.0), (150.0, 310.0))
    rep = fidelity(rec.input_series, rec.output_series, rec.grid.dt, sig,
                   echo_window=(150.0, 310.0))
    ok = (degraded < reference - 0.05
          and repaired >= reference - 0.01
          and rep.fidelity >= reference - 0.01)
    print(f"[criterion 5] {'PASS' if ok else 'FAIL'}: [10,70]us beta=3: "
          f"F(delta=0) = {degraded:.4f} -> F(delta*={res.delta:+.4f}) = "
          f"{repaired:.4f}, solver-applied {rep.fidelity:.4f} "
          f"(reference {reference:.4f}, recover within 0.01)")
    assert ok


def test_criterion_6_shape_preservation_low_depth():
    cfg = long_config(0.1, nt=12401)
    pulse = PulseSpec(kind="plane_wave_window", mode_index=0, window=LONG_INTERVAL)
    rec = run_gem(cfg, pulse, field_stride=cfg.grid.nt - 1)
    sig = efficiency_numeric(rec, (0.0, 150.0), (150.0, 310.0))
    rep = fidelity(rec.input_series, rec.output_series, rec.grid.dt, sig,
                   echo_window=(150.0, 310.0))
    ok = rep.shape > 0.98 and sig < 0.35
    print(f"[criterion 6] {'PASS' if ok else 'FAIL'}: [10,70]us beta=0.1: "
          f"F^r = {rep.shape:.4f} (> 0.98) while sigma = {sig:.4f} (< 0.35)")
    assert ok


def test_criterion_7_normal_mode_invariants(fig2, fig2_abrupt_record, fig2_freeze_record):
    rec = fig2_abrupt_record
    ks = to_kspace(rec, rec.linear_density)
    storage = np.nonzero((ks.times > 20.0) & (ks.times < 70.0))[0]
    worst_phi = max(phi_residual(ks, int(i)) for i in storage)

    cen = centroid_series(ks)
    sel = (ks.times > 20.0) & (ks.times < 70.0)
    slope = np.polyfit(ks.times[sel], cen[sel], 1)[0]
    eta0 = fig2.config.stark.eta0
    slope_err = abs(slope - (-eta0)) / eta0

    krec = fig2_freeze_record
    kks = to_kspace(krec, krec.linear_density)
    fsel = np.nonzero((kks.times > 30.5) & (kks.times < 39.5))[0]
    fcen = [k_centroid(kks, int(i)) for i in fsel]
    cen_drift = (max(fcen) - min(fcen)) / abs(np.mean(fcen))
    norms = [polariton_norm(kks, int(i)) for i in fsel]
    norm_drift = (max(norms) - min(norms)) / max(norms)

    ok = (worst_phi < 1e-2 and norm_drift < 0.01 and slope_err < 0.05
          and cen_drift < 0.005)
    print(f"[criterion 7] {'PASS' if ok else 'FAIL'}: phi residual "
          f"{worst_phi:.2e} (< 1e-2), polariton-norm drift {norm_drift:.2e} "
          f"(< 0.01, eta=0 window), centroid slope err {slope_err:.2e} "
          f"(< 0.05), frozen-centroid drift {cen_drift:.2e} (< 0.005)")
    assert ok


def test_criterion_8_excitation_balance(fig2_abrupt_record, fig2_tanh_record,
                                        fig2_freeze_record):
    worst = max(balance_residual(r) for r in
                (fig2_abrupt_record, fig2_tanh_record, fig2_freeze_record))
    ok = worst < 0.01
    print(f"[criterion 8] {'PASS' if ok else 'FAIL'}: worst balance residual "
          f"{worst:.2e} of peak flux (< 0.01)")
    assert ok


def test_criterion_9_eit_contrast():
    eit_spec = load_spec(preset_path("fig3_eit"))
    eit_rec = run_eit(eit_spec.config, eit_spec.pulse,
                      field_stride=eit_spec.params.get("field_stride"))
    hold = (eit_rec.field_times > 27.0) & (eit_rec.field_times < 73.0)
    prof = np.abs(eit_rec.spin_wave[hold])
    drift = np.max(np.linalg.norm(prof - prof[0], axis=1)) / np.linalg.norm(prof[0])
    env_corr = envelope_correlation(eit_rec, 45.0)

    gem_spec = load_spec(preset_path("fig3_gem"))
    gem_rec = run_gem(gem_spec.config, gem_spec.pulse,
                      field_stride=gem_spec.params.get("field_stride"))
    eta_abs = gem_spec.config.stark.eval(gem_spec.pulse.center)
    spec_corr = input_spectrum_correlation(gem_rec, 45.0, eta_abs)

    ok = drift < 0.01 and env_corr > 0.95 and spec_corr > 0.99
    print(f"[criterion 9] {'PASS' if ok else 'FAIL'}: spin-wave drift "
          f"{drift:.2e} (< 0.01), EIT envelope corr {env_corr:.4f} (> 0.95), "
          f"GEM alpha-vs-spectrum corr {spec_corr:.4f} (> 0.99)")
    assert ok


def test_criterion_10_determinism_and_convergence(tmp_path, fig2, preset_sigmas):
    r1 = run_experiment(fig2, tmp_path / "a")
    r2 = run_experiment(fig2, tmp_path / "b")
    d1 = {f["name"]: f["sha256"] for f in r1.files}
    d2 = {f["name"]: f["sha256"] for f in r2.files}
    identical = d1 == d2

    refined = beta_sweep_sigmas(nz=8192, nt=16001)
    worst = max(abs(refined[b] - preset_sigmas[b]) / refined[b]
                for b in preset_sigmas)
    ok = identical and worst < 0.005
    print(f"[criterion 10] {'PASS' if ok else 'FAIL'}: preset reruns "
          f"byte-identical = {identical}; halving dt,dz moves efficiencies "
          f"by {worst:.2e} (< 0.005)")
    assert ok
