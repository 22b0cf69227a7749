import ast
import contextlib
import hashlib
import io
import json
import math
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gemsim import experiments, metrics, solver
from gemsim.cli import main as cli_main
from gemsim.cli import preset_names, preset_path
from gemsim.eit import eit_polariton, run_eit
from gemsim.experiments import (_HASH_CHUNK_BYTES, SpecValidationError, envelope_correlation,
                                input_spectrum_correlation, load_spec, run_experiment)
from gemsim.kspace import k_centroid, modes, phi_residual, to_kspace
from gemsim.solver import run_gem


def tiny_gem_spec(tmp_path, grid=(), **overrides):
    """A small gem_run spec; grid replaces entries of its grid, overrides
    top-level keys."""
    doc = {
        "name": "tiny",
        "kind": "gem_run",
        "output_dir": "tiny",
        "config": {
            "g": 1.0,
            "linear_density": 4.0,
            "gamma": 0.0,
            "stark": {"eta0": 4.0, "switch_time": 15.0, "ramp_tau": 0.0,
                      "delta_offset": 0.0, "freeze_intervals": []},
            "grid": {"z_min": -1.0, "z_max": 1.0, "nz": 128, "t_max": 40.0,
                     "nt": 1601},
        },
        "pulse": {"kind": "gaussian", "amplitude": 1.0, "center": 4.0, "width": 1.2},
        "params": {"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0]},
        "checks": {"sigma_abs_vs_analytic": 0.02, "balance_residual_max": 0.01,
                   "echo_peak_us": [25.0, 27.0]},
    }
    doc["config"]["grid"].update(grid)
    doc.update(overrides)
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(doc))
    return path


def tiny_sweep_spec(tmp_path):
    doc = {
        "name": "tiny_sweep",
        "kind": "fidelity_sweep",
        "output_dir": "tiny_sweep",
        "config": {
            "g": 1.0,
            "linear_density": 4.0,
            "gamma": 0.0,
            "stark": {"eta0": 4.0, "switch_time": 20.0, "ramp_tau": 0.0,
                      "delta_offset": 0.0, "freeze_intervals": []},
            "grid": {"z_min": -1.0, "z_max": 1.0, "nz": 160, "t_max": 50.0,
                     "nt": 2001},
        },
        "params": {"interval": [6.0, 10.0], "betas": [0.5, 1.0],
                   "mode_indices": [-1, 0, 1], "delta": 0.0},
        "checks": {},
    }
    path = tmp_path / "tiny_sweep.json"
    path.write_text(json.dumps(doc))
    return path


def tiny_eit_spec(tmp_path, **params):
    """fig3_eit on a 32-site grid with 50 atoms, so 2001 steps resolve the
    exchange rate; params replace entries of the spec's params."""
    def edit(doc):
        doc["config"].update(n_atoms=50.0)
        doc["config"]["grid"].update(nz=32, nt=2001)
        doc["params"].update(params)
        doc.update(checks={})
    return preset_variant(tmp_path, "fig3_eit", edit)


def as_delta_search(search_halfwidth):
    """Edit turning a fidelity_sweep preset into a delta_search spec."""
    def edit(doc):
        doc.update(kind="delta_search", checks={})
        doc["params"] = {"interval": doc["params"]["interval"], "probe_mode": 0,
                         "search_halfwidth": search_halfwidth}
    return edit


def stored_residual(spec, record):
    """phi_residual of a stored record's row where kspace_report reads it."""
    i = experiments._residual_row(spec.config, spec.params, record.field_times)
    return phi_residual(to_kspace(record), i, record.e_field[i], record.polarisation[i])


def stored_spectrum_corr(spec, record):
    """input_spectrum_correlation of a stored record's spectrum_time row."""
    i = int(np.argmin(np.abs(record.field_times - spec.params["spectrum_time"])))
    eta = spec.config.stark.eval(spec.pulse.center)
    return input_spectrum_correlation(record, record.polarisation[i], eta)


def stored_envelope_corr(spec, record):
    """envelope_correlation of a stored record's polariton row at the
    spec's envelope_time."""
    cfg = spec.config
    t = record.field_times
    i = int(np.argmin(np.abs(t - spec.params["envelope_time"])))
    rows = slice(i, i + 1)
    polariton = eit_polariton(cfg, t[rows], record.e_field[rows], record.spin_wave[rows])
    return envelope_correlation(record, polariton[0])


def stored_spinwave_drift(spec, record):
    """Largest distance ||S| - |S_ref|| of a stored record's hold rows from
    the first, over ||S_ref||, the spin-wave drift of an eit_run."""
    hold = experiments._hold_rows(spec.config, spec.params["input_window"], record.field_times)
    profiles = np.abs(record.spin_wave[hold])
    ref = profiles[0]
    return float(np.max(np.linalg.norm(profiles - ref, axis=1)) / np.linalg.norm(ref))


def preset_variant(tmp_path, name, edit):
    """Copy of a packaged preset with `edit(doc)` applied."""
    doc = json.loads(preset_path(name).read_text())
    edit(doc)
    path = tmp_path / f"{name}_variant.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoadSpec:
    def test_valid_roundtrip(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path))
        assert spec.kind == "gem_run"
        assert spec.config.beta == pytest.approx(1.0)
        assert spec.pulse.center == 4.0

    def test_unknown_key_is_pinpointed(self, tmp_path):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["stark"]["etaa0"] = 1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecValidationError, match=r"config\.stark\.etaa0"):
            load_spec(path)

    def test_nyquist_guard_named_in_rejection(self, tmp_path):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["grid"]["nz"] = 16
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecValidationError, match="Nyquist guard"):
            load_spec(path)

    def test_negative_width_rejected(self, tmp_path):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["pulse"]["width"] = -1.0
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecValidationError, match="pulse"):
            load_spec(path)

    def test_bad_kind(self, tmp_path):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["kind"] = "warp_drive"
        path.write_text(json.dumps(doc))
        with pytest.raises(SpecValidationError, match="kind"):
            load_spec(path)

    def test_absolute_output_dir_rejected(self, tmp_path):
        path = tiny_gem_spec(tmp_path, output_dir="/abs/path")
        with pytest.raises(SpecValidationError, match="output_dir"):
            load_spec(path)

    def test_shipped_presets_are_valid(self):
        names = preset_names()
        assert names == ["fig2_abrupt", "fig2_tanh", "fig3_eit", "fig3_gem",
                         "fig4_quick", "fig4_sweep"]
        for name in names:
            spec = load_spec(preset_path(name))
            assert spec.name == name

    def test_fig4_quick_is_fig4_sweep_on_fewer_betas_and_modes(self):
        quick, full = (json.loads(preset_path(n).read_text()) for n in ("fig4_quick", "fig4_sweep"))
        subsets = ("betas", "mode_indices")
        for key in subsets:
            assert set(quick["params"][key]) <= set(full["params"][key])
        for doc in (quick, full):
            del doc["name"], doc["output_dir"]
            for key in subsets:
                del doc["params"][key]
        assert quick == full

    @pytest.mark.parametrize("preset, edit, key", [
        ("fig3_eit", lambda doc: doc["checks"].update(sigma_abs_vs_analytic=0.5),
         "checks.sigma_abs_vs_analytic"),
        ("fig3_eit", lambda doc: doc["checks"].update(fidelity_min=0.5), "checks.fidelity_min"),
        ("fig4_sweep", lambda doc: doc["checks"].update(sigma_min=0.5), "checks.sigma_min"),
        ("fig4_sweep", lambda doc: doc["params"].pop("mode_indices"), "params.mode_indices"),
        ("fig3_gem", lambda doc: doc["config"]["grid"].update(nz=1), "config.grid: nz"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(eta0=0), "config.stark: eta0"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(ramp_tau=-1),
         "config.stark: ramp_tau"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(freeze_intervals=[[5, 1]]),
         "config.stark: freeze interval"),
        ("fig3_eit", lambda doc: doc["config"]["grid"].update(t_max=-1), "config.grid: t_max"),
        ("fig4_sweep", lambda doc: doc["params"].update(betas=[200]), "params.betas[0]: time step"),
        ("fig4_sweep", lambda doc: doc["params"].update(mode_indices=[1000]),
         "params.mode_indices: mode 1000"),
        ("fig4_sweep", lambda doc: doc["params"].update(interval=[50, 70]), "params.interval"),
        ("fig3_gem", lambda doc: doc["params"].update(betas=[1.0]), "params.betas"),
        ("fig3_gem", lambda doc: doc["params"].update(freeze_window=[50, 55]),
         "params.freeze_window"),
        ("fig3_gem", lambda doc: doc["params"].update(envelope_time=45.0), "params.envelope_time"),
        ("fig4_sweep", lambda doc: doc.update(pulse={"kind": "gaussian", "width": 1.0}), "pulse"),
        ("fig3_eit", lambda doc: doc["pulse"].update(amplitude=1e200), "pulse: amplitude"),
        ("fig3_gem", lambda doc: doc["params"].update(field_stride=0), "params.field_stride"),
        ("fig3_eit", lambda doc: doc["config"]["grid"].update(nz=2), "config: nz must be >= 3"),
        ("fig3_gem", lambda doc: doc["params"].update(input_window=[0, 70]),
         "params: input and echo windows must be disjoint"),
        ("fig3_gem", lambda doc: doc["params"].update(input_window=[90, 100], echo_window=[60, 80]),
         "params.input_window: the pulse carries no energy"),
        ("fig3_gem", lambda doc: doc["params"].update(echo_window=[121, 130]),
         "params.echo_window: [121.0, 130.0] holds fewer than two grid samples"),
        ("fig3_gem", lambda doc: (
            doc.update(pulse={"kind": "plane_wave_window", "mode_index": 0, "window": [6, 10]}),
            doc["params"].update(input_window=[5, 12], echo_window=[0, 4])),
         "params.echo_window: [0.0, 4.0] ends before the input window starts"),
        ("fig3_eit", lambda doc: doc["params"].update(input_window=[0, 80]),
         "params: input and echo windows must be disjoint"),
        ("fig3_eit", lambda doc: doc["params"].update(input_window=[12, 12]),
         "params: windows must be nonempty"),
        ("fig3_eit", lambda doc: doc["params"].update(echo_window=[100.5, 101]),
         "params.echo_window: [100.5, 101.0] holds fewer than two grid samples"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(switch_time=130),
         "config.stark.switch_time: no grid sample after 130"),
        ("fig4_quick", as_delta_search(0), "params.search_halfwidth must be positive"),
        ("fig4_quick", as_delta_search(-2), "params.search_halfwidth must be positive"),
        ("fig3_eit", lambda doc: doc["params"].update(input_window=[0, 72]),
         "checks.spinwave_drift_max: no stored row lies between"),
        ("fig3_eit", lambda doc: doc["params"].update(field_stride=8000),
         "checks.spinwave_drift_max: no stored row lies between"),
        ("fig3_eit", lambda doc: doc["config"]["grid"].update(nt=2001),
         "config: time step too large for the field/polarisation exchange rate"),
        ("fig3_eit", lambda doc: doc["config"].update(g=1e200),
         "config: time step too large for the field/polarisation exchange rate"),
        ("fig3_eit", lambda doc: doc["config"].update(omega_c0=0.0),
         "config: derived group delay"),
        ("fig3_eit", lambda doc: doc["config"].update(g=1e-170),
         "config: derived group delay"),
        ("fig2_abrupt", lambda doc: doc["params"].update(field_stride=8000),
         "params: the k-space residual row (t = 0 us"),
        ("fig2_abrupt", lambda doc: doc["pulse"].update(center=61.0),
         "params: the k-space residual row (t = 60 us"),
        ("fig4_quick", lambda doc: doc["checks"].pop("min_fidelity"),
         "checks.min_fidelity_beta_from: modifies checks.min_fidelity, which is not set"),
        ("fig4_quick", lambda doc: (doc["params"].update(betas=[0.5]),
                                    doc["checks"].update(min_fidelity_beta_from=5)),
         "checks.min_fidelity_beta_from: 5.0 exceeds every beta the sweep runs"),
        ("fig4_quick", lambda doc: (doc["params"].pop("betas"),
                                    doc["checks"].update(min_fidelity_beta_from=1.5)),
         "checks.min_fidelity_beta_from: 1.5 exceeds every beta the sweep runs"),
        ("fig3_gem", lambda doc: doc["params"].pop("spectrum_time"),
         "checks.spectrum_corr_min: needs params.spectrum_time"),
        ("fig4_quick", lambda doc: doc["params"].update(betas=[1.0, 1.0000001]),
         "params.betas[1]: 1.0000001 has the summary label 1, as an earlier beta"),
        ("fig4_quick", lambda doc: doc["params"].update(interval=[35.001, 35.01]),
         "params.interval: a mode on [35.001, 35.01], sampled on the grid, carries no energy"),
        ("fig4_quick", lambda doc: doc["config"]["stark"].update(switch_time=100.0),
         "config.stark.switch_time: no grid sample after 100 (t_max = 100)"),
        ("fig4_quick", lambda doc: doc["config"]["stark"].update(switch_time=99.99),
         "config.stark.switch_time: the echo window (switch_time, t_max): [99.99, 100.0] holds "
         "fewer than two grid samples"),
        ("fig4_quick", lambda doc: (as_delta_search(1.0)(doc),
                                    doc["config"]["stark"].update(switch_time=120.0)),
         "config.stark.switch_time: no grid sample after 120 (t_max = 100)"),
        ("fig4_quick", lambda doc: (as_delta_search(1.0)(doc),
                                    doc["config"]["stark"].update(switch_time=99.99)),
         "config.stark.switch_time: the echo window (switch_time, t_max): [99.99, 100.0] holds "
         "fewer than two grid samples"),
        # a pulse takes the keys its kind reads; an unknown kind is named
        ("fig3_gem", lambda doc: doc["pulse"].update(mode_index=1), "unknown key pulse.mode_index"),
        ("fig3_gem", lambda doc: doc["pulse"].update(window=[4, 8]), "unknown key pulse.window"),
        ("fig2_abrupt", lambda doc: doc["pulse"].update(mod_freq=1.0),
         "unknown key pulse.mod_freq"),
        *[("fig3_gem", lambda doc, key=key: doc.update(pulse={
            "kind": "plane_wave_window", "mode_index": 1, "window": [4, 8], key: 1.0}),
           f"unknown key pulse.{key}") for key in ("center", "width", "mod_freq")],
        ("fig3_gem", lambda doc: doc["pulse"].update(kind="square", window=[4, 8]),
         "pulse: unknown pulse kind 'square'"),
        # numbers that overflow a float in a check report the check's key
        ("fig3_gem", lambda doc: doc["config"]["grid"].update(t_max=1e308),
         "config: Nyquist guard violated: |eta0|*L*t_max/pi exceeds the float range"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(eta0=1e308),
         "config: Nyquist guard violated: |eta0|*L*t_max/pi exceeds the float range"),
        ("fig3_gem", lambda doc: doc["config"]["grid"].update(z_min=-1e308, z_max=1e308),
         "config: Nyquist guard violated: |eta0|*L*t_max/pi exceeds the float range"),
        ("fig4_quick", lambda doc: doc["params"].update(mode_indices=[0, 10**400]),
         "params.mode_indices: mode 1000"),
        ("fig4_quick", lambda doc: (as_delta_search(1.0)(doc),
                                    doc["params"].update(probe_mode=-10**400)),
         "params.probe_mode: mode -1000"),
        ("fig4_quick", lambda doc: (as_delta_search(1.0)(doc),
                                    doc["params"].update(verify_modes=[1, 10**400])),
         "params.verify_modes: mode 1000"),
        ("fig3_gem", lambda doc: doc.update(pulse={
            "kind": "plane_wave_window", "mode_index": 10**400, "window": [4, 8]}),
         "pulse: mode_index: the phase 2*pi*mode_index*t/(t2 - t1) exceeds the float range"),
        # cos(inf) is NaN: a pulse the solvers would sample as NaN
        *[(name, lambda doc: doc["pulse"].update(mod_freq=1e308),
           "pulse: its samples at the grid times and the step midpoints are not all finite")
          for name in ("fig3_gem", "fig3_eit")],
        # values of the wrong shape, and documents that are no spec
        ("fig4_quick", lambda doc: doc["params"].update(delta="fast"),
         'params.delta must be a number or "auto"'),
        ("fig3_gem", lambda doc: doc.update(name=5), "name must be a string"),
        ("fig3_gem", lambda doc: doc["params"].update(input_window=[1.0]),
         "params.input_window must be a two-element list"),
        ("fig3_gem", lambda doc: doc["config"]["stark"].update(freeze_intervals=5),
         "config.stark.freeze_intervals must be a list of [t_a, t_b] pairs"),
        ("fig4_quick", lambda doc: doc["params"].update(betas=[]),
         "params.betas must be a nonempty list of numbers"),
        ("fig4_quick", lambda doc: doc["params"].update(mode_indices=[]),
         "params.mode_indices must be a nonempty list of integers"),
        ("fig3_gem", lambda doc: doc.update(config=5), "config must be an object"),
        (None, lambda path: path, "cannot read spec file"),
        (None, lambda path: (path.write_text("[]"), path)[1],
         "spec document must be a JSON object"),
        ("fig3_gem", lambda doc: doc.pop("pulse"), "kind gem_run requires a pulse"),
    ], ids=["eit_sigma_vs_analytic", "eit_fidelity_min", "sweep_sigma_min", "sweep_no_modes",
            "grid_nz_1", "stark_eta0_0", "stark_negative_ramp", "freeze_interval_reversed",
            "eit_negative_t_max", "sweep_beta_exchange", "sweep_mode_out_of_band",
            "sweep_interval_after_switch", "gem_betas", "gem_freeze_window",
            "gem_envelope_time", "sweep_pulse", "huge_amplitude", "zero_field_stride",
            "eit_nz_2", "gem_windows_overlap", "gem_input_window_without_energy",
            "gem_echo_window_without_samples", "gem_echo_window_before_input",
            "eit_windows_overlap", "eit_input_window_empty", "eit_echo_window_without_samples",
            "gem_switch_after_t_max", "delta_halfwidth_0", "delta_halfwidth_negative",
            "eit_drift_without_hold_rows", "eit_drift_stride_skips_hold", "eit_exchange",
            "eit_huge_coupling", "eit_no_control", "eit_group_delay_underflow",
            "kspace_residual_row_at_start", "kspace_residual_row_before_pulse",
            "sweep_beta_from_without_min_fidelity", "sweep_beta_from_above_every_beta",
            "sweep_beta_from_above_the_config_beta", "gem_spectrum_check_without_time",
            "sweep_betas_with_one_label", "sweep_interval_between_grid_samples",
            "sweep_switch_at_t_max", "sweep_one_sample_after_switch",
            "delta_switch_after_t_max", "delta_one_sample_after_switch",
            "modulated_pulse_mode_index", "modulated_pulse_window", "gaussian_pulse_mod_freq",
            "plane_wave_pulse_center", "plane_wave_pulse_width", "plane_wave_pulse_mod_freq",
            "unknown_pulse_kind", "gem_t_max_past_float", "gem_eta0_past_float",
            "gem_z_span_past_float", "sweep_mode_index_past_float",
            "delta_probe_mode_past_float", "delta_verify_modes_past_float",
            "plane_wave_pulse_mode_index_past_float", "gem_pulse_mod_freq_past_float",
            "eit_pulse_mod_freq_past_float", "sweep_delta_word", "name_number",
            "gem_input_window_one_number", "stark_freeze_intervals_number", "sweep_betas_empty",
            "sweep_mode_indices_empty", "config_number", "spec_file_missing",
            "spec_not_an_object", "gem_run_without_pulse"])
    def test_spec_that_would_fail_after_loading_exits_2(self, tmp_path, capsys, preset, edit,
                                                         key):
        # with no preset, edit(path) writes the spec file (or not) and returns its path
        path = (preset_variant(tmp_path, preset, edit) if preset
                else edit(tmp_path / "spec.json"))
        with pytest.raises(SpecValidationError, match=re.escape(key)):
            load_spec(path)
        assert cli_main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int_beyond_float"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, value):
        path = preset_variant(tmp_path, "fig3_eit",
                              lambda doc: doc["pulse"].update(amplitude=value))
        with pytest.raises(SpecValidationError, match=r"pulse\.amplitude must be finite"):
            load_spec(path)
        assert cli_main(["validate", str(path)]) == 2
        capsys.readouterr()

    def test_integer_past_the_parser_digit_limit_exits_2(self, tmp_path, capsys):
        path = preset_variant(tmp_path, "fig4_quick",
                              lambda doc: doc["params"].update(mode_indices="MODE"))
        path.write_text(path.read_text().replace('"MODE"', "[" + "9" * 5000 + "]"))
        with pytest.raises(SpecValidationError, match="is not valid JSON"):
            load_spec(path)
        assert cli_main(["validate", str(path)]) == 2
        assert "is not valid JSON" in capsys.readouterr().err

    def test_fig2_preset_values(self):
        spec = load_spec(preset_path("fig2_abrupt"))
        assert spec.config.beta == pytest.approx(3.3)
        assert spec.config.stark.switch_time == 80.0
        assert spec.config.stark.ramp_tau == 0.0
        assert spec.pulse.center == 5.0


class TestRunExperiment:
    def test_gem_run_artifacts_and_checks(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path))
        res = run_experiment(spec, tmp_path / "out")
        assert res.ok
        manifest = json.loads(res.manifest_path.read_text())
        names = [f["name"] for f in manifest["files"]]
        assert "input_output.csv" in names
        assert manifest["scalars"]["sigma"] == pytest.approx(
            manifest["scalars"]["sigma_analytic"], abs=0.02)
        for check in manifest["checks"]:
            assert check["passed"], check

    def test_failing_check_gives_failed_status(self, tmp_path):
        path = tiny_gem_spec(tmp_path, checks={"echo_peak_us": [1.0, 2.0]})
        res = run_experiment(load_spec(path), tmp_path / "out")
        assert not res.ok
        assert res.status == "failed"

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path))
        r1 = run_experiment(spec, tmp_path / "a")
        r2 = run_experiment(spec, tmp_path / "b")
        d1 = {f["name"]: f["sha256"] for f in r1.files}
        d2 = {f["name"]: f["sha256"] for f in r2.files}
        assert d1 == d2

    def test_dump_fields_emits_maps(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path))
        res = run_experiment(spec, tmp_path / "out", dump_fields=True)
        names = [f["name"] for f in res.files]
        assert "e_field_mag.npy" in names
        assert "polarisation_mag.npy" in names
        # the z axis is its own file, one value per map column after t_us
        z = np.loadtxt(tmp_path / "out" / "tiny" / "z_axis.csv", skiprows=1)
        assert z[0] == -1.0
        e_map = np.load(tmp_path / "out" / "tiny" / "e_field_mag.npy")
        assert e_map.shape[1] == 1 + z.size and e_map[0, 0] == 0.0

    def test_kspace_maps_are_the_record_bit_for_bit(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path, kind="kspace_report", checks={}))
        run_experiment(spec, tmp_path / "out")
        out = tmp_path / "out" / "tiny"
        record = run_gem(spec.config, spec.pulse, field_stride=spec.params["field_stride"])
        ks = to_kspace(record)
        maps = modes(record.e_field, record.polarisation, record.config)
        for name, values in zip(("psi_mag.npy", "phi_mag.npy"), maps):
            saved = np.load(out / name)
            assert saved.dtype == np.float64 and saved.flags.c_contiguous
            assert np.array_equal(saved, np.column_stack((ks.times, np.abs(values))))
        assert np.array_equal(np.loadtxt(out / "k_axis.csv", skiprows=1), ks.k_axis)

    def test_centroid_csv_is_k_centroid_bit_for_bit(self, tmp_path):
        spec = load_spec(tiny_gem_spec(tmp_path, kind="kspace_report", checks={}))
        run_experiment(spec, tmp_path / "out")
        saved = np.loadtxt(tmp_path / "out" / "tiny" / "centroid.csv", delimiter=",",
                           skiprows=1)[:, 1]
        ks = to_kspace(run_gem(spec.config, spec.pulse, field_stride=spec.params["field_stride"]))
        lit = np.flatnonzero(~np.isnan(saved))
        assert 0 < lit.size < saved.size
        assert saved[lit].tobytes() == np.array([k_centroid(ks, i) for i in lit]).tobytes()

    @pytest.mark.parametrize("make_spec, scalar, reference", [
        (lambda tmp_path: tiny_gem_spec(tmp_path, kind="kspace_report", checks={}),
         "phi_residual_mid_storage", stored_residual),
        (lambda tmp_path: tiny_gem_spec(
            tmp_path, params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                              "spectrum_time": 12.0, "field_stride": 7}),
         "spectrum_corr", stored_spectrum_corr),
        (lambda tmp_path: tiny_eit_spec(tmp_path, field_stride=7), "envelope_corr",
         stored_envelope_corr),
        (lambda tmp_path: tiny_eit_spec(tmp_path, field_stride=7), "spinwave_drift",
         stored_spinwave_drift),
    ], ids=["phi_residual", "spectrum_corr", "envelope_corr", "spinwave_drift"])
    def test_streamed_scalars_are_the_library_readers_bit_for_bit(self, tmp_path, make_spec,
                                                                  scalar, reference):
        # the streamed run keeps one row; the library reads it from a record
        # that stores every strided row
        spec = load_spec(make_spec(tmp_path))
        streamed = run_experiment(spec, tmp_path / "out").scalars[scalar]
        run = run_eit if spec.kind == "eit_run" else run_gem
        stored = reference(spec, run(spec.config, spec.pulse,
                                     field_stride=spec.params["field_stride"]))
        assert streamed.hex() == stored.hex()

    def test_spectrum_corr_reads_eta_where_a_plane_wave_pulse_arrives(self, tmp_path):
        # a freeze that ends before the pulse arrives leaves sigma and |alpha|
        # as they are, so it leaves spectrum_corr as it is too
        def scalars(freeze_intervals, name):
            path = tiny_gem_spec(
                tmp_path, checks={}, output_dir=name,
                pulse={"kind": "plane_wave_window", "mode_index": 1, "window": [4.0, 8.0]},
                params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                        "spectrum_time": 12.0})
            doc = json.loads(path.read_text())
            doc["config"]["stark"]["freeze_intervals"] = freeze_intervals
            path.write_text(json.dumps(doc))
            return run_experiment(load_spec(path), tmp_path / "out").scalars

        plain, frozen = scalars([], "plain"), scalars([[0.0, 1.0]], "frozen")
        assert frozen["sigma"] == pytest.approx(plain["sigma"], rel=1e-9)
        assert plain["spectrum_corr"] > 0.9
        assert frozen["spectrum_corr"] == pytest.approx(plain["spectrum_corr"], abs=1e-9)

    @pytest.mark.parametrize("make_spec, run", [
        (lambda tmp_path: tiny_gem_spec(
            tmp_path, params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                              "spectrum_time": 12.0, "field_stride": 7}), "run_gem"),
        (lambda tmp_path: tiny_eit_spec(tmp_path, field_stride=7), "run_eit"),
    ], ids=["gem_run", "eit_run"])
    def test_a_run_without_maps_hands_on_every_strided_row(self, tmp_path, monkeypatch,
                                                           make_spec, run):
        # the scalars copy the rows they read as the rows pass, each once
        spec = load_spec(make_spec(tmp_path))
        strides, handed = [], []
        solve = getattr(experiments, run)

        def spy(config, pulse, **kwargs):
            strides.append(kwargs["field_stride"])
            consume = kwargs["consume"]

            def counted(j, *rows):
                handed.append(j)
                consume(j, *rows)

            return solve(config, pulse, **{**kwargs, "consume": counted})

        monkeypatch.setattr(experiments, run, spy)
        run_experiment(spec, tmp_path / "out")
        nt = spec.config.grid.nt
        assert strides == [7]
        assert handed == list(range(len(range(0, nt - 1, 7)) + 1))

    def test_imports_no_private_kspace_or_eit_name(self):
        # the streamed run calls the readers a library caller calls
        tree = ast.parse(Path(experiments.__file__).read_text())
        names = [alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module in ("kspace", "eit") for alias in node.names]
        assert "phi_residual" in names and "eit_polariton" in names
        assert [name for name in names if name.startswith("_")] == []

    @pytest.mark.parametrize("make_spec", [
        lambda tmp_path: tiny_gem_spec(tmp_path, kind="kspace_report", checks={}),
        tiny_eit_spec,
    ], ids=["gem", "eit"])
    def test_dumped_maps_rerun_byte_identical(self, tmp_path, make_spec):
        spec = load_spec(make_spec(tmp_path))
        r1 = run_experiment(spec, tmp_path / "a", dump_fields=True)
        r2 = run_experiment(spec, tmp_path / "b", dump_fields=True)
        maps = [f["name"] for f in r1.files if f["name"].endswith(".npy")]
        assert len(maps) == (4 if spec.kind == "kspace_report" else 3)
        assert r1.files == r2.files

    @pytest.mark.parametrize("make_spec, reads", [
        (lambda tmp_path: tiny_gem_spec(
            tmp_path, params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                              "spectrum_time": 12.0, "field_stride": 7},
            checks={"spectrum_corr_min": 0.0}), "spectrum_corr"),
        (lambda tmp_path: tiny_gem_spec(tmp_path, kind="kspace_report", checks={}),
         "phi_residual_mid_storage"),
        (lambda tmp_path: tiny_eit_spec(tmp_path, field_stride=7), "spinwave_drift"),
    ], ids=["gem_run", "kspace_report", "eit_run"])
    def test_scalars_do_not_depend_on_writing_maps(self, tmp_path, make_spec, reads):
        # without maps a run keeps copies of only the rows its scalars read
        spec = load_spec(make_spec(tmp_path))
        plain = run_experiment(spec, tmp_path / "plain")
        dumped = run_experiment(spec, tmp_path / "dumped", dump_fields=True)
        assert reads in plain.scalars
        assert plain.scalars == dumped.scalars
        series = [next(f for f in r.files if f["name"] == "input_output.csv")
                  for r in (plain, dumped)]
        assert series[0] == series[1]

    @pytest.mark.parametrize("stride", [2**63, 10**400], ids=["2**63", "10**400"])
    @pytest.mark.parametrize("make_spec", [
        lambda tmp_path, stride: tiny_gem_spec(tmp_path, params={
            "input_window": [0.0, 10.0], "echo_window": [15.0, 40.0], "field_stride": stride}),
        lambda tmp_path, stride: tiny_eit_spec(tmp_path, field_stride=stride),
    ], ids=["gem", "eit"])
    def test_a_stride_past_the_run_keeps_the_first_and_last_rows(self, tmp_path, capsys,
                                                                 make_spec, stride):
        # every stride of nt - 1 or more stores rows 0 and nt - 1, whatever
        # its size
        def files(stride, out):
            path = make_spec(tmp_path, stride)
            assert cli_main(["--out", str(out), "--dump-fields", "run", str(path)]) == 0
            out_dir = out / load_spec(path).output_dir
            return json.loads((out_dir / "manifest.json").read_text())["files"]

        grid = load_spec(make_spec(tmp_path, 1)).config.grid
        assert files(stride, tmp_path / "huge") == files(grid.nt - 1, tmp_path / "last")
        out_dir = tmp_path / "huge" / load_spec(make_spec(tmp_path, stride)).output_dir
        assert np.load(out_dir / "e_field_mag.npy")[:, 0].tolist() == [0.0, grid.t_max]
        capsys.readouterr()

    def test_a_run_without_maps_holds_no_field_rows(self, tmp_path):
        spec = load_spec(tiny_gem_spec(
            tmp_path, grid={"nz": 1024, "nt": 2001},
            params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                    "field_stride": 1}))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(spec, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        one_field = 2001 * 1024 * 16
        assert peak < one_field / 4

    def test_csv_is_the_bytes_np_savetxt_writes(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(10001, 6)) * 10.0 ** rng.integers(-300, 300, size=(10001, 6))
        data[::7, 1] = np.nan  # as in centroid.csv
        data[3::11, 2] = -0.0
        data[5, 3], data[6, 4], data[8, 5] = np.inf, -np.inf, 0.0
        ref = io.BytesIO()
        np.savetxt(ref, data, fmt=experiments._FMT, delimiter=",", header="a,b,c,d,e,f",
                   comments="")
        path = experiments._ArtifactWriter(tmp_path).csv("x.csv", "a,b,c,d,e,f", data.T)
        assert path.read_bytes() == ref.getvalue()

    def test_a_map_writing_run_holds_a_few_rows(self, tmp_path):
        # the march hands its rows to the map writers one at a time, so
        # writing every row of the run peaks within a few rows (the k-space
        # step's three, the writer's row buffer and the kept copies) and six
        # float vectors over its 4001 stored rows (the times, the view's
        # power and centroid, the centroid CSV's columns) of writing a
        # handful, far below one field's history
        def peak(stride):
            spec = load_spec(tiny_gem_spec(
                tmp_path, grid={"nz": 512, "nt": 4001}, kind="kspace_report", checks={},
                params={"input_window": [0.0, 10.0], "echo_window": [15.0, 40.0],
                        "field_stride": stride}))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_experiment(spec, tmp_path / f"stride{stride}", dump_fields=True)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        row, row_vectors = 512 * 16, 6 * 4001 * 8
        every_row, few_rows = peak(1), peak(800)
        assert every_row <= few_rows + row_vectors + 8 * row
        assert every_row < 4001 * 512 * 16 / 4

    @pytest.mark.parametrize("make_spec", [
        lambda tmp_path: tiny_gem_spec(tmp_path, kind="kspace_report", checks={}),
        lambda tmp_path: tiny_eit_spec(tmp_path, field_stride=1),
    ], ids=["gem", "eit"])
    def test_maps_are_the_saved_magnitudes_hashed_in_chunks(self, tmp_path, make_spec):
        spec = load_spec(make_spec(tmp_path))
        stride = spec.params["field_stride"]
        if spec.kind == "eit_run":
            record = run_eit(spec.config, spec.pulse, field_stride=stride)
            polariton = eit_polariton(record.config, record.field_times, record.e_field,
                                      record.spin_wave)
            maps = {"spin_wave": record.spin_wave, "polariton": polariton}
        else:
            record = run_gem(spec.config, spec.pulse, field_stride=stride)
            psi, phi = modes(record.e_field, record.polarisation, record.config)
            maps = {"polarisation": record.polarisation, "psi": psi, "phi": phi}
        maps["e_field"] = record.e_field

        def check(res):
            manifest = {f["name"]: f for f in res.files}
            for name, rows in maps.items():
                data = (res.manifest_path.parent / f"{name}_mag.npy").read_bytes()
                assert len(data) > _HASH_CHUNK_BYTES
                ref = io.BytesIO()
                np.save(ref, np.column_stack((record.field_times, np.abs(rows))))
                assert data == ref.getvalue(), name
                entry = manifest[f"{name}_mag.npy"]
                assert entry["sha256"] == hashlib.sha256(data).hexdigest()
                assert entry["bytes"] == len(data)

        check(run_experiment(spec, tmp_path / "out", dump_fields=True))

    def test_sweep_workers_equivalent(self, tmp_path):
        spec = load_spec(tiny_sweep_spec(tmp_path))
        r1 = run_experiment(spec, tmp_path / "w1", workers=1)
        r2 = run_experiment(spec, tmp_path / "w2", workers=2)
        c1 = (tmp_path / "w1" / "tiny_sweep" / "sweep.csv").read_bytes()
        c2 = (tmp_path / "w2" / "tiny_sweep" / "sweep.csv").read_bytes()
        assert hashlib.sha256(c1).hexdigest() == hashlib.sha256(c2).hexdigest()
        summary = json.loads((tmp_path / "w1" / "tiny_sweep" / "summary.json").read_text())
        assert set(summary["per_beta"]) == {"0.5", "1"}

    def test_min_fidelity_reads_the_betas_from_the_floor_not_their_labels(self, tmp_path):
        # 1.0000004 is labelled "1" in summary.json, below the 1.0000002 floor
        doc = json.loads(tiny_sweep_spec(tmp_path).read_text())
        doc["params"]["betas"] = [0.5, 1.0000004]
        doc["checks"] = {"min_fidelity": 0.0, "min_fidelity_beta_from": 1.0000002}
        path = tmp_path / "floor.json"
        path.write_text(json.dumps(doc))
        res = run_experiment(load_spec(path), tmp_path / "out")
        rows = np.loadtxt(tmp_path / "out" / "tiny_sweep" / "sweep.csv", delimiter=",",
                          skiprows=1)
        worst = rows[rows[:, 0] == 1.0000004, 3].min()
        assert worst != rows[:, 3].min()
        assert res.scalars["min_fidelity"] == worst
        assert res.checks == [{"name": "min_fidelity", "passed": True, "value": worst,
                               "expected": 0.0}]

    def test_delta_search_solves_the_probe_once(self, tmp_path, monkeypatch):
        path = tmp_path / "delta.json"
        doc = json.loads(tiny_sweep_spec(tmp_path).read_text())
        doc.update(kind="delta_search", output_dir="delta")
        doc["params"] = {"interval": [6.0, 10.0], "probe_mode": 0,
                         "verify_modes": [-1, 0, 2], "search_halfwidth": 2.0}
        path.write_text(json.dumps(doc))
        spec = load_spec(path)
        solves = []
        solve = metrics.run_gem

        def counted(config, pulse, **kwargs):
            solves.append(pulse.mode_index)
            return solve(config, pulse, **kwargs)

        monkeypatch.setattr(metrics, "run_gem", counted)
        assert run_experiment(spec, tmp_path / "out").ok
        assert sorted(solves) == [-1, 0, 2]
        monkeypatch.setattr(metrics, "run_gem", solve)
        payload = json.loads((tmp_path / "out" / "delta" / "delta.json").read_text())
        # the probe's entry is what a second solve of it would score
        rep = metrics._score(metrics._mode_run(spec.config, 0, (6.0, 10.0)), payload["delta"])
        assert payload["verify_modes"]["0"] == {"fidelity": rep.fidelity, "sigma": rep.sigma}


class TestCli:
    def test_runtime_imports_no_scipy(self):
        # gemsim depends on numpy only: importing it, loading every preset
        # and validating one from the CLI must not load scipy
        import gemsim

        src = str(Path(gemsim.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "import gemsim, gemsim.cli",
            "from gemsim.experiments import load_spec",
            "for name in gemsim.cli.preset_names():",
            "    load_spec(gemsim.cli.preset_path(name))",
            "assert gemsim.cli.main(['validate', str(gemsim.cli.preset_path('fig2_abrupt'))]) == 0",
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_runtime_imports_no_process_pool(self):
        # only a sweep that starts a pool imports it, and multiprocessing
        # with it: importing the package and the CLI loads neither
        import gemsim

        src = str(Path(gemsim.__file__).resolve().parents[1])
        code = "\n".join([
            "import sys",
            f"sys.path.insert(0, {src!r})",
            "import gemsim, gemsim.experiments, gemsim.cli",
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_validate_ok(self, tmp_path, capsys):
        path = tiny_gem_spec(tmp_path)
        assert cli_main(["validate", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True

    def test_validate_rejects_with_exit_2(self, tmp_path, capsys):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["grid"]["nz"] = 16
        path.write_text(json.dumps(doc))
        assert cli_main(["validate", str(path)]) == 2
        assert "Nyquist guard" in capsys.readouterr().err

    def test_run_of_a_rejected_spec_exits_2(self, tmp_path, capsys):
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["grid"]["nz"] = 16
        path.write_text(json.dumps(doc))
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec rejected: config: Nyquist guard")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_presets_run_of_an_unknown_preset_exits_2(self, tmp_path, capsys):
        assert cli_main(["--out", str(tmp_path / "o"), "presets", "run", "fig9"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("spec rejected: unknown preset 'fig9'; available: fig2_abrupt")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_run_exit_codes(self, tmp_path, capsys):
        good = tiny_gem_spec(tmp_path)
        assert cli_main(["--out", str(tmp_path / "o1"), "run", str(good)]) == 0
        bad = tiny_gem_spec(tmp_path, checks={"echo_peak_us": [1.0, 2.0]})
        assert cli_main(["--out", str(tmp_path / "o2"), "run", str(bad)]) == 1
        capsys.readouterr()

    def test_solver_failure_after_load_exits_3(self, tmp_path, capsys, monkeypatch):
        from gemsim import experiments
        from gemsim.solver import NonFiniteFieldError

        def blow_up(*args, **kwargs):
            raise NonFiniteFieldError(1, 0.01)

        monkeypatch.setattr(experiments, "run_gem", blow_up)
        path = tiny_gem_spec(tmp_path)
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: non-finite values at time index 1")
        assert len(err.splitlines()) == 1
        manifest = json.loads((tmp_path / "o" / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_a_grid_numpy_cannot_hold_is_rejected_at_load(self, tmp_path, capsys, monkeypatch):
        # nt = 2**62 samples are more than a numpy array can index; a grid
        # the checks cannot allocate is rejected at its key path
        huge = preset_variant(tmp_path, "fig3_gem",
                              lambda doc: doc["config"]["grid"].update(nt=2**62))
        assert cli_main(["validate", str(huge)]) == 2
        assert capsys.readouterr().err == (
            "spec rejected: config.grid: nz and nt must each fit a complex numpy array\n")

        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(experiments, "_check_windows", no_memory)
        assert cli_main(["validate", str(tiny_gem_spec(tmp_path))]) == 2
        assert capsys.readouterr().err == (
            "spec rejected: config.grid: Unable to allocate 7.28 TiB\n")

    @pytest.mark.parametrize("z_min, z_max", [(-3.0, 3.0), (0.0, 2.0), (-1.0, 1.0)])
    def test_an_eit_grid_off_the_normalised_cell_is_rejected_at_load(self, tmp_path, capsys,
                                                                     z_min, z_max):
        # run_eit integrates over the cell normalised to [0, 1], so other
        # bounds would change no value, only mislabel z_axis.csv
        path = preset_variant(tmp_path, "fig3_eit",
                              lambda doc: doc["config"]["grid"].update(z_min=z_min, z_max=z_max))
        assert cli_main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            "spec rejected: config: EIT's z is normalised to the cell: z must run from 0 to 1\n")

    def test_memory_failure_after_load_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 29.1 TiB")

        monkeypatch.setattr(experiments, "run_gem", no_memory)
        path = tiny_gem_spec(tmp_path)
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 3
        assert capsys.readouterr().err == "run failed: Unable to allocate 29.1 TiB\n"
        manifest = json.loads((tmp_path / "o" / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_march_failure_leaves_no_partial_map(self, tmp_path, capsys, monkeypatch):
        # the field turns non-finite at step 1000 of 1600, after the march
        # has handed on hundreds of rows to every map: the partial maps are
        # deleted, and no file is listed in the incomplete manifest
        calls = []

        def poisoned(f, dx, out=None):
            calls.append(1)
            out = solver_simpson(f, dx, out=out)
            if len(calls) >= 3 * 1000:
                out[:] = np.nan
            return out

        solver_simpson = solver.cumulative_simpson
        monkeypatch.setattr(solver, "cumulative_simpson", poisoned)
        pushed = []
        npy = experiments._ArtifactWriter.npy

        @contextlib.contextmanager
        def npy_spy(self, names, times, width):
            with npy(self, names, times, width) as push:
                yield lambda j, rows: (pushed.append(j), push(j, rows))

        monkeypatch.setattr(experiments._ArtifactWriter, "npy", npy_spy)
        path = tiny_gem_spec(tmp_path, kind="kspace_report", checks={})
        out = tmp_path / "o"
        assert cli_main(["--out", str(out), "--dump-fields", "run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: non-finite values at time index 1000")
        assert len(err.splitlines()) == 1
        assert len(pushed) > 10
        assert sorted(p.name for p in (out / "tiny").iterdir()) == ["manifest.json"]
        manifest = json.loads((out / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete" and manifest["files"] == []

    def test_analysis_failure_after_load_exits_3(self, tmp_path, capsys, monkeypatch):
        def no_correlation(*args, **kwargs):
            raise ValueError("correlation vanishes at every delay")

        monkeypatch.setattr(experiments, "fidelity", no_correlation)
        path = tiny_gem_spec(tmp_path, kind="kspace_report")
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 3
        assert capsys.readouterr().err == "run failed: correlation vanishes at every delay\n"
        manifest = json.loads((tmp_path / "o" / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_a_residual_emptied_by_decay_fails_its_check(self, tmp_path, capsys):
        # decay empties the polarisation before the k-space residual is
        # read: the residual is NaN, written as null, and fails its check
        path = tiny_gem_spec(tmp_path, kind="kspace_report", checks={"phi_residual_max": 0.1})
        doc = json.loads(path.read_text())
        doc["config"]["gamma"] = 20.0
        path.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 1
        assert not caught, [str(w.message) for w in caught]
        assert capsys.readouterr().err == ""
        manifest = json.loads((tmp_path / "o" / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "failed"
        assert manifest["scalars"]["phi_residual_mid_storage"] is None
        assert manifest["checks"] == [{"name": "phi_residual_max", "passed": False,
                                       "value": None, "expected": 0.1}]

    def test_a_ramp_past_the_float_range_runs_to_a_verdict(self, tmp_path, capsys):
        # eta0*tau overflows: the slope integral of a ramp that long must not
        # be inf times a vanishing log-cosh difference
        path = tiny_gem_spec(tmp_path)
        doc = json.loads(path.read_text())
        doc["config"]["stark"]["ramp_tau"] = 1e308
        path.write_text(json.dumps(doc))
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) in (0, 1)
        assert capsys.readouterr().err == ""

    def test_unwritable_output_root_exits_3(self, tmp_path, capsys):
        not_a_dir = tmp_path / "f"
        not_a_dir.touch()
        path = tiny_gem_spec(tmp_path)
        assert cli_main(["--out", str(not_a_dir), "run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: ")
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-4", "abc"])
    def test_workers_must_be_a_positive_integer(self, tmp_path, capsys, workers):
        path = tiny_gem_spec(tmp_path)
        with pytest.raises(SystemExit) as info:
            cli_main(["--workers", workers, "--out", str(tmp_path / "o"), "run", str(path)])
        assert info.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(load_spec(path), tmp_path / "o", workers=0)

    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig2_abrupt" in out and "fig4_sweep" in out


def _unit(lo=0.0, hi=1.0):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def _windows_and_stride(draw, t_max):
    """params shared by the GEM and EIT kinds: efficiency windows (left to
    their defaults, or drawn on the early and the late part of the time
    axis, where they may overlap) and a row stride."""
    params = {}
    if draw(st.booleans()):
        params["input_window"] = sorted(draw(_unit(-0.1, 0.6)) * t_max for _ in range(2))
        params["echo_window"] = sorted(draw(_unit(0.3, 1.1)) * t_max for _ in range(2))
    if draw(st.booleans()):
        params["field_stride"] = draw(st.integers(1, 500))
    return params


@st.composite
def _pulse_doc(draw, t_max):
    amplitude = draw(_unit(0.1, 10.0)) * draw(st.sampled_from([1, -1]))
    kind = draw(st.sampled_from(["gaussian", "modulated", "plane_wave_window"]))
    if kind == "plane_wave_window":
        t1, t2 = sorted((draw(_unit(0.0, 0.6)) * t_max, draw(_unit(0.0, 0.6)) * t_max))
        return {"kind": kind, "amplitude": amplitude, "mode_index": draw(st.integers(-5, 5)),
                "window": [t1, t2 + 0.05 * t_max]}
    doc = {"kind": kind, "amplitude": amplitude, "center": draw(_unit(0.0, 0.4)) * t_max,
           "width": draw(_unit(0.01, 0.2)) * t_max}
    if kind == "modulated":
        doc["mod_freq"] = draw(_unit(0.1, 10.0))
    return doc


def _checks_doc(draw, names):
    """A random subset of the named checks with random targets."""
    checks = {}
    for name in draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names))):
        if name == "echo_peak_us":
            checks[name] = sorted((draw(_unit(0.0, 100.0)), draw(_unit(0.0, 100.0))))
        else:
            checks[name] = draw(_unit(-1.0, 2.0))
    return checks


@st.composite
def gem_spec_docs(draw, kind):
    """Small gem_run / kspace_report documents, most of them loadable: eta0
    is drawn up to 1.3 times the sampling guard's limit and beta up to 4.
    Decay reaches gamma*t_max = 60: a medium emptied by decay (power down
    by 1e12) leaves kspace_report no residual to read, a NaN residual that
    fails its check (test_a_residual_emptied_by_decay_fails_its_check)."""
    nz, nt = draw(st.integers(3, 64)), draw(st.integers(2, 401))
    half, t_max = draw(_unit(0.25, 3.0)), draw(_unit(5.0, 60.0))
    eta0 = (draw(_unit(0.05, 1.3)) * math.pi * (nz - 2) / (2.0 * half * t_max)
            * draw(st.sampled_from([1, -1])))
    g = draw(_unit(0.2, 3.0))
    stark = {"eta0": eta0, "switch_time": draw(_unit(0.2, 1.05)) * t_max}
    if draw(st.booleans()):
        stark["ramp_tau"] = draw(_unit(0.0, 0.3)) * t_max
    if draw(st.booleans()):
        stark["delta_offset"] = draw(_unit(-2.0, 2.0))
    if draw(st.booleans()):
        stark["freeze_intervals"] = [sorted((draw(_unit()) * t_max, draw(_unit()) * t_max))]
    params = draw(_windows_and_stride(t_max))
    if draw(st.booleans()):
        params["spectrum_time"] = draw(_unit()) * t_max
    names = ["echo_peak_us", "sigma_abs_vs_analytic", "balance_residual_max",
             "spectrum_corr_min", "sigma_min", "fidelity_min"]
    if kind == "kspace_report":
        names.append("phi_residual_max")
    return {
        "name": "prop", "kind": kind, "output_dir": "prop",
        "config": {
            "g": g, "linear_density": draw(_unit(0.05, 4.0)) * abs(eta0) / g,
            "gamma": draw(st.one_of(st.just(0.0), _unit(0.0, 60.0 / t_max))),
            "stark": stark,
            "grid": {"z_min": -half, "z_max": half, "nz": nz, "t_max": t_max, "nt": nt},
        },
        "pulse": draw(_pulse_doc(t_max)),
        "params": params,
        "checks": _checks_doc(draw, names),
    }


@st.composite
def eit_spec_docs(draw):
    """Small eit_run documents: n_atoms is drawn through the exchange number
    g^2*n_atoms*dt*gamma_e/(2*pi), up to 1.2 times its bound."""
    nz, nt = draw(st.integers(3, 64)), draw(st.integers(2, 401))
    t_max = draw(_unit(5.0, 100.0))
    g, gamma_e = draw(_unit(0.1, 2.0)), draw(_unit(0.05, 2.0))
    exchange = draw(_unit(0.01, 2.4))
    down, up = sorted((draw(_unit(0.1, 1.0)) * t_max, draw(_unit(0.1, 1.0)) * t_max))
    params = draw(_windows_and_stride(t_max))
    if draw(st.booleans()):
        params["envelope_time"] = draw(_unit()) * t_max
    return {
        "name": "prop", "kind": "eit_run", "output_dir": "prop",
        "config": {
            "n_atoms": exchange * 2.0 * math.pi * (nt - 1) / (g * g * t_max * gamma_e),
            "g": g, "omega_c0": draw(_unit(0.1, 20.0)), "switch_down": down, "switch_up": up,
            "ramp_tau": draw(_unit(0.0, 5.0)), "gamma_e": gamma_e,
            "grid": {"z_min": 0.0, "z_max": 1.0, "nz": nz, "t_max": t_max, "nt": nt},
        },
        "pulse": draw(_pulse_doc(t_max)),
        "params": params,
        "checks": _checks_doc(draw, ["envelope_corr_min", "spinwave_drift_max", "sigma_min"]),
    }


@st.composite
def sweep_spec_docs(draw):
    """Small fidelity_sweep documents: up to two depths and two modes, drawn
    inside the band (one draw in ten from three times the band), a mode
    window ending by the switch, and a min_fidelity check whose beta floor
    may lie above every depth or stand without the check."""
    nz, nt = draw(st.integers(3, 64)), draw(st.integers(2, 401))
    half, t_max = draw(_unit(0.25, 3.0)), draw(_unit(5.0, 60.0))
    eta0 = (draw(_unit(0.05, 1.3)) * math.pi * (nz - 2) / (2.0 * half * t_max)
            * draw(st.sampled_from([1, -1])))
    # the switch may reach or pass t_max, or leave one grid sample after it
    switch = draw(st.one_of(_unit(0.3, 1.05).map(lambda u: u * t_max),
                            _unit(0.0, 1.5).map(lambda u: t_max * (1.0 - u / (nt - 1)))))
    t1 = draw(_unit(0.0, 0.5)) * switch
    t2 = t1 + draw(_unit(0.1, 1.0)) * (switch - t1)
    n_max = int(abs(eta0) * half * (t2 - t1) / (2.0 * math.pi) * draw(
        st.sampled_from([1.0] * 9 + [3.0])))
    params = {"interval": [t1, t2],
              "mode_indices": draw(st.lists(st.integers(-n_max, n_max), min_size=1, max_size=2)),
              "delta": draw(st.sampled_from([0.0, "auto"]))}
    if draw(st.booleans()):
        params["betas"] = draw(st.lists(_unit(0.1, 4.0), min_size=1, max_size=2))
    checks = {}
    if draw(st.booleans()):
        checks["min_fidelity"] = draw(_unit(-1.0, 2.0))
    if draw(st.booleans()):
        checks["min_fidelity_beta_from"] = draw(_unit(0.0, 5.0))
    return {
        "name": "prop", "kind": "fidelity_sweep", "output_dir": "prop",
        "config": {
            "g": 1.0, "linear_density": draw(_unit(0.1, 4.0)) * abs(eta0), "gamma": 0.0,
            "stark": {"eta0": eta0, "switch_time": switch},
            "grid": {"z_min": -half, "z_max": half, "nz": nz, "t_max": t_max, "nt": nt},
        },
        "params": params,
        "checks": checks,
    }


class TestLoadedSpecsRun:
    """A spec that loads cannot fail on configuration afterwards: through
    the CLI, a small random spec exits 2 at load, or 0 or 1 after its run
    with a value for every check (null only for a scalar the run recorded
    as NaN); never 3, never a traceback, never a warning."""

    @staticmethod
    def _exit_code_matches_load(doc):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spec.json"
            path.write_text(json.dumps(doc))
            try:
                load_spec(path)
                allowed = (0, 1)
            except SpecValidationError:
                allowed = (2,)
            # pytest captures warnings, so they never reach err: record them
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err, \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["--out", str(Path(tmp) / "out"), "run", str(path)])
            assert code in allowed, (code, err.getvalue())
            assert not caught, [str(w.message) for w in caught]
            if code != 2:
                out = Path(tmp) / "out" / "prop"
                manifest = json.loads((out / "manifest.json").read_text())
                # a scalar is missing from no check; one recorded as NaN
                # (null, a residual emptied by decay) fails its check
                scalars = manifest["scalars"]
                assert all(c["value"] is not None or (
                    scalars[experiments._CHECKS[c["name"]][1]] is None and not c["passed"])
                    for c in manifest["checks"]), manifest["checks"]
                if (out / "sweep.csv").exists():
                    assert "nan" not in (out / "sweep.csv").read_text().lower()

    @pytest.mark.parametrize("kind", ["gem_run", "kspace_report"])
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gem_kinds(self, kind, data):
        self._exit_code_matches_load(data.draw(gem_spec_docs(kind)))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(doc=eit_spec_docs())
    def test_eit_run(self, doc):
        self._exit_code_matches_load(doc)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(doc=sweep_spec_docs())
    def test_fidelity_sweep(self, doc):
        self._exit_code_matches_load(doc)


# boundary values a spec key is set to, one key at a time
BOUNDARY_VALUES = [0, -0.0, 5e-324, 1e-300, 1e308, -1e308, 2**63, 10**400, -1, "text", None,
                   [1.0], True]


def _number_and_list_paths(node, path=()):
    """Key paths of every number (not a bool) and every list entry of a JSON
    document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        here = path + (key,)
        if isinstance(node, list) or (isinstance(value, (int, float))
                                      and not isinstance(value, bool)):
            yield here
        if isinstance(value, (dict, list)):
            yield from _number_and_list_paths(value, here)


def boundary_variants(names):
    """(label, document) of each preset in names with one number or list
    entry set to one of BOUNDARY_VALUES."""
    for name in names:
        text = preset_path(name).read_text()
        for path in _number_and_list_paths(json.loads(text)):
            for value in BOUNDARY_VALUES:
                doc = json.loads(text)
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                yield f"{name}:{'.'.join(map(str, path))}={value!r:.20}", doc


class TestBoundarySweep:
    """Every number and list entry of every preset, set to boundary values
    one at a time: a variant loads or is rejected at load with one short
    line, and a variant that loads runs to a verdict (exit 0 or 1)."""

    def test_each_variant_loads_or_is_rejected_in_one_line(self, tmp_path):
        path = tmp_path / "variant.json"
        faults, loaded = [], 0
        for label, doc in boundary_variants(preset_names()):
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    load_spec(path)
                    loaded += 1
                except SpecValidationError as exc:
                    message = str(exc)
                    if "\n" in message or len(message) > 200:
                        faults.append((label, f"{len(message)} characters", message[:80]))
                except Exception as exc:  # noqa: BLE001  (every other exception is a fault)
                    faults.append((label, repr(exc)[:120]))
            faults += [(label, str(w.message)) for w in caught
                       if issubclass(w.category, RuntimeWarning)]
        assert faults == []
        assert loaded > 500

    # a phase below 1e-8 at every site on every step (eta0, ramp_tau), a
    # decay rate whose square overflows (gamma), an N/g past the float
    # range (g), an EIT spin-wave drift read against an empty first hold
    # row (switch_down, gamma_e) and an EIT capture scan whose span is past
    # the float range (ramp_tau)
    RUN_ALWAYS = ("fig3_gem:config.stark.eta0=1e-300", "fig3_gem:config.stark.ramp_tau=1e+308",
                  "fig3_gem:config.gamma=1e+308", "fig3_gem:config.g=5e-324",
                  "fig3_eit:config.switch_down=-1e+308", "fig3_eit:config.gamma_e=1e-300",
                  "fig3_eit:config.ramp_tau=1e+308")

    def test_a_sample_of_loaded_fig3_variants_runs_to_a_verdict(self, tmp_path, capsys):
        path = tmp_path / "variant.json"
        runnable = []
        for label, doc in boundary_variants(["fig3_gem", "fig3_eit"]):
            path.write_text(json.dumps(doc))
            try:
                load_spec(path)
            except SpecValidationError:
                continue
            runnable.append((label, doc))
        assert len(runnable) > 100
        always = [(label, doc) for label, doc in runnable if label in self.RUN_ALWAYS]
        assert len(always) == len(self.RUN_ALWAYS)
        for label, doc in random.Random(26).sample(runnable, 8) + always:
            path.write_text(json.dumps(doc))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = cli_main(["--out", str(tmp_path / "out"), "run", str(path)])
            assert code in (0, 1), (label, code, capsys.readouterr().err)
            assert [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)] == [], label
        capsys.readouterr()

    def test_a_nan_scalar_is_written_as_null_in_strict_json(self, tmp_path, capsys):
        # N/g past the float range: the balance residual is NaN and its check fails
        doc = dict(boundary_variants(["fig3_gem"]))["fig3_gem:config.g=5e-324"]
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["--out", str(tmp_path / "out"), "run", str(path)]) == 1
        capsys.readouterr()

        def no_constant(token):
            raise ValueError(f"non-JSON token {token}")

        text = (tmp_path / "out" / doc["output_dir"] / "manifest.json").read_text()
        manifest = json.loads(text, parse_constant=no_constant)
        assert manifest["status"] == "failed"
        assert manifest["scalars"]["balance_residual"] is None
        assert any(c["value"] is None and not c["passed"] for c in manifest["checks"])
