import hashlib
import json
import re

import pytest

from gemsim.cli import main as cli_main
from gemsim.cli import preset_names, preset_path
from gemsim.experiments import SpecValidationError, load_spec, run_experiment


def tiny_gem_spec(tmp_path, **overrides):
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


def as_delta_search(search_halfwidth):
    """Edit turning a fidelity_sweep preset into a delta_search spec."""
    def edit(doc):
        doc.update(kind="delta_search", checks={})
        doc["params"] = {"interval": doc["params"]["interval"], "probe_mode": 0,
                         "search_halfwidth": search_halfwidth}
    return edit


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
    ], ids=["eit_sigma_vs_analytic", "eit_fidelity_min", "sweep_sigma_min", "sweep_no_modes",
            "grid_nz_1", "stark_eta0_0", "stark_negative_ramp", "freeze_interval_reversed",
            "eit_negative_t_max", "sweep_beta_exchange", "sweep_mode_out_of_band",
            "sweep_interval_after_switch", "gem_betas", "gem_freeze_window",
            "gem_envelope_time", "sweep_pulse", "huge_amplitude", "zero_field_stride",
            "eit_nz_2", "gem_windows_overlap", "gem_input_window_without_energy",
            "gem_echo_window_without_samples", "gem_echo_window_before_input",
            "eit_windows_overlap", "eit_input_window_empty", "eit_echo_window_without_samples",
            "gem_switch_after_t_max", "delta_halfwidth_0", "delta_halfwidth_negative"])
    def test_spec_that_would_fail_after_loading_exits_2(self, tmp_path, capsys, preset, edit,
                                                         key):
        path = preset_variant(tmp_path, preset, edit)
        with pytest.raises(SpecValidationError, match=re.escape(key)):
            load_spec(path)
        assert cli_main(["validate", str(path)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                             ids=["nan", "inf", "-inf", "int_beyond_float"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, value):
        path = preset_variant(tmp_path, "fig3_eit",
                              lambda doc: doc["pulse"].update(amplitude=value))
        with pytest.raises(SpecValidationError, match=r"pulse\.amplitude must be finite"):
            load_spec(path)
        assert cli_main(["validate", str(path)]) == 2
        capsys.readouterr()

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
        assert "e_field_mag.csv" in names
        assert "polarisation_mag.csv" in names
        # header row carries the z axis
        header = (tmp_path / "out" / "tiny" / "e_field_mag.csv").read_text().splitlines()[0]
        assert header.startswith("t_us,-1")

    def test_sweep_workers_equivalent(self, tmp_path):
        spec = load_spec(tiny_sweep_spec(tmp_path))
        r1 = run_experiment(spec, tmp_path / "w1", workers=1)
        r2 = run_experiment(spec, tmp_path / "w2", workers=2)
        c1 = (tmp_path / "w1" / "tiny_sweep" / "sweep.csv").read_bytes()
        c2 = (tmp_path / "w2" / "tiny_sweep" / "sweep.csv").read_bytes()
        assert hashlib.sha256(c1).hexdigest() == hashlib.sha256(c2).hexdigest()
        summary = json.loads((tmp_path / "w1" / "tiny_sweep" / "summary.json").read_text())
        assert set(summary["per_beta"]) == {"0.5", "1"}


class TestCli:
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

    def test_analysis_failure_after_load_exits_3(self, tmp_path, capsys):
        # decay empties the polarisation before the k-space residual is read
        path = tiny_gem_spec(tmp_path, kind="kspace_report")
        doc = json.loads(path.read_text())
        doc["config"]["gamma"] = 20.0
        path.write_text(json.dumps(doc))
        assert cli_main(["--out", str(tmp_path / "o"), "run", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("run failed: |Psi|^2 at t index")
        assert len(err.splitlines()) == 1
        manifest = json.loads((tmp_path / "o" / "tiny" / "manifest.json").read_text())
        assert manifest["status"] == "incomplete"

    def test_presets_list(self, capsys):
        assert cli_main(["presets", "list"]) == 0
        out = capsys.readouterr().out.split()
        assert "fig2_abrupt" in out and "fig4_sweep" in out
