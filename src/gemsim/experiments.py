"""Experiment specs: strict JSON ingestion, orchestration, artifact output.

A spec document mirrors the configuration dataclasses field for field.
Each spec kind is declared once, in `_KINDS`: its config type, whether it
takes a pulse, the params it requires and accepts, its load-time check, its
runner and, for the kinds that score an echo, its default efficiency
windows.  `load_spec` rejects unknown keys, wrong types and every
configuration invariant with the dotted key path, so a spec that loads
cannot fail on configuration afterwards.  Artifacts are CSV/JSON files
with fixed full-precision formatting and a manifest listing names,
checksums and headline scalars; rerunning a spec reproduces every data
file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .core import ConfigError, GemConfig, Grid, PulseSpec, StarkProfile
from .eit import EitConfig, EitRecord, eit_polariton, run_eit
from .kspace import centroid_series, phi_residual, to_kspace
from .metrics import (
    _mode_report,
    check_efficiency_windows,
    check_mode_run,
    echo_peak_time,
    efficiency_analytic,
    efficiency_numeric,
    fidelity,
    find_delta,
    mode_fidelity_sweep,
    window_energy,
)
from .solver import run_gem

__all__ = ["ExperimentSpec", "ExperimentResult", "SpecValidationError", "balance_residual",
           "load_spec", "run_experiment"]

_FMT = "%.17e"


class SpecValidationError(ValueError):
    """Spec document rejected; the message carries the offending key path."""


def _require_keys(obj: dict, path: str, required: dict, optional: dict = ()):
    optional = dict(optional)
    for key in obj:
        if key not in required and key not in optional:
            raise SpecValidationError(f"unknown key {path}.{key}" if path else f"unknown key {key}")
    for key in required:
        if key not in obj:
            raise SpecValidationError(f"missing key {path + '.' if path else ''}{key}")
    out = {}
    for key, conv in {**required, **optional}.items():
        if key in obj:
            out[key] = conv(obj[key], f"{path + '.' if path else ''}{key}")
    return out


def _number(v, path):
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SpecValidationError(f"{path} must be a number")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf if v > 0 else -math.inf
    if not math.isfinite(x):
        raise SpecValidationError(f"{path} must be finite, got {x}")
    return x


def _number_or_auto(v, path):
    if v == "auto":
        return v
    if isinstance(v, str):
        raise SpecValidationError(f'{path} must be a number or "auto"')
    return _number(v, path)


def _integer(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SpecValidationError(f"{path} must be an integer")
    return int(v)


def _stride(v, path):
    n = _integer(v, path)
    if n < 1:
        raise SpecValidationError(f"{path} must be >= 1")
    return n


def _positive(v, path):
    x = _number(v, path)
    if not x > 0:
        raise SpecValidationError(f"{path} must be positive")
    return x


def _string(v, path):
    if not isinstance(v, str):
        raise SpecValidationError(f"{path} must be a string")
    return v


def _pair(v, path):
    if not isinstance(v, list) or len(v) != 2:
        raise SpecValidationError(f"{path} must be a two-element list")
    return (_number(v[0], path + "[0]"), _number(v[1], path + "[1]"))


def _pair_list(v, path):
    if not isinstance(v, list):
        raise SpecValidationError(f"{path} must be a list of [t_a, t_b] pairs")
    return tuple(_pair(p, f"{path}[{i}]") for i, p in enumerate(v))


def _number_list(v, path):
    if not isinstance(v, list) or not v:
        raise SpecValidationError(f"{path} must be a nonempty list of numbers")
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _int_list(v, path):
    if not isinstance(v, list) or not v:
        raise SpecValidationError(f"{path} must be a nonempty list of integers")
    return [_integer(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _at(path: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ConfigError reported at the key path."""
    try:
        return fn(*args, **kwargs)
    except ConfigError as exc:
        raise SpecValidationError(f"{path}: {exc}") from exc


def _object(cls, required: dict, optional: dict = ()):
    """Parser of a JSON object into cls(**keys), keys checked and converted
    by _require_keys; the invariants cls enforces are reported at the
    object's path."""

    def parse(obj, path):
        if not isinstance(obj, dict):
            raise SpecValidationError(f"{path} must be an object")
        return _at(path, cls, **_require_keys(obj, path, required, optional))

    return parse


_grid = _object(
    Grid, {"z_min": _number, "z_max": _number, "nz": _integer, "t_max": _number, "nt": _integer})
_stark = _object(
    StarkProfile,
    {"eta0": _number, "switch_time": _number},
    {"ramp_tau": _number, "delta_offset": _number, "freeze_intervals": _pair_list},
)
_gem_config = _object(
    GemConfig,
    {"g": _number, "linear_density": _number, "gamma": _number, "stark": _stark, "grid": _grid},
)
_eit_config = _object(
    EitConfig,
    {"n_atoms": _number, "g": _number, "omega_c0": _number, "switch_down": _number,
     "switch_up": _number, "ramp_tau": _number, "grid": _grid},
    {"gamma_e": _number},
)
_pulse = _object(
    PulseSpec,
    {"kind": _string},
    {"amplitude": _number, "center": _number, "width": _number, "mod_freq": _number,
     "mode_index": _integer, "window": _pair},
)


def _identity(v, path):
    return v


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    kind: str
    config: Any
    pulse: Optional[PulseSpec]
    output_dir: str
    params: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)


def _scalar(name):
    return lambda scalars, summary, checks: scalars.get(name)


def _sigma_error(scalars, summary, checks):
    return abs(scalars["sigma"] - scalars["sigma_analytic"])


def _worst_fidelity(scalars, summary, checks):
    """Lowest per-beta min fidelity over betas >= min_fidelity_beta_from."""
    beta_from = checks.get("min_fidelity_beta_from", 0.0)
    fs = [s["min_fidelity"] for beta, s in summary.items() if float(beta) >= beta_from]
    return min(fs) if fs else None


def _within(v, target):
    return target[0] <= v <= target[1]


_GEM_KINDS = ("gem_run", "kspace_report")
_KSPACE = ("kspace_report",)
_EIT = ("eit_run",)

# check -> (target parser, value it tests, comparator, kinds whose runs
# produce that value); a comparator of None marks a modifier of another check
_CHECKS = {
    "echo_peak_us": (_pair, _scalar("echo_peak_us"), _within, _GEM_KINDS),
    "sigma_abs_vs_analytic": (_number, _sigma_error, operator.lt, _GEM_KINDS),
    "balance_residual_max": (_number, _scalar("balance_residual"), operator.lt, _GEM_KINDS),
    "phi_residual_max": (_number, _scalar("phi_residual_mid_storage"), operator.lt, _KSPACE),
    "spectrum_corr_min": (_number, _scalar("spectrum_corr"), operator.gt, _GEM_KINDS),
    "envelope_corr_min": (_number, _scalar("envelope_corr"), operator.gt, _EIT),
    "spinwave_drift_max": (_number, _scalar("spinwave_drift"), operator.lt, _EIT),
    "sigma_min": (_number, _scalar("sigma"), operator.gt, _GEM_KINDS + _EIT),
    "fidelity_min": (_number, _scalar("fidelity"), operator.gt, _GEM_KINDS + ("delta_search",)),
    "min_fidelity": (_number, _worst_fidelity, operator.gt, ("fidelity_sweep",)),
    "min_fidelity_beta_from": (_number, None, None, ("fidelity_sweep",)),
}
_checks = _object(dict, {}, {name: c[0] for name, c in _CHECKS.items()})


def load_spec(path) -> ExperimentSpec:
    """Parse and fully validate an experiment spec JSON document."""
    p = Path(path)
    try:
        doc = json.loads(p.read_text())
    except OSError as exc:
        raise SpecValidationError(f"cannot read spec file {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecValidationError("spec document must be a JSON object")

    top = _require_keys(
        doc,
        "",
        {"name": _string, "kind": _string, "config": _identity, "output_dir": _string},
        {"pulse": _identity, "params": _identity, "checks": _identity},
    )
    kind = top["kind"]
    if kind not in _KINDS:
        raise SpecValidationError(f"kind must be one of {tuple(_KINDS)}, got {kind!r}")
    entry = _KINDS[kind]
    config = entry.parse_config(top["config"], "config")

    pulse = top.get("pulse")
    if entry.pulse and pulse is None:
        raise SpecValidationError(f"kind {kind} requires a pulse")
    if not entry.pulse and pulse is not None:
        raise SpecValidationError(f"pulse: kind {kind} takes no pulse")
    pulse = _pulse(pulse, "pulse") if entry.pulse else None

    params = _object(dict, entry.required_params, entry.optional_params)(
        top.get("params", {}), "params")
    if entry.windows is not None:
        default_in, default_echo = entry.windows(config)
        params.setdefault("input_window", default_in)
        params.setdefault("echo_window", default_echo)
    if entry.check is not None:
        entry.check(config, pulse, params)

    checks = _checks(top.get("checks", {}), "checks")
    for check in checks:
        if kind not in _CHECKS[check][3]:
            raise SpecValidationError(f"checks.{check} does not apply to kind {kind}")

    out_dir = top["output_dir"]
    if Path(out_dir).is_absolute() or ".." in Path(out_dir).parts:
        raise SpecValidationError("output_dir must be a relative path without '..'")

    return ExperimentSpec(
        name=top["name"],
        kind=kind,
        config=config,
        pulse=pulse,
        output_dir=out_dir,
        params=params,
        checks=checks,
    )


@dataclass
class ExperimentResult:
    name: str
    status: str
    manifest_path: Path
    scalars: dict
    checks: list
    files: list

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _ArtifactWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header: str, columns) -> Path:
        """One CSV file; columns are 1-D series or 2-D blocks, side by side."""
        path = self.out_dir / name
        data = np.column_stack(columns)
        np.savetxt(path, data, fmt=_FMT, delimiter=",", header=header, comments="")
        self._register(path)
        return path

    def json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        self._register(path)
        return path

    def _register(self, path: Path):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        self.files.append({"name": path.name, "sha256": digest, "bytes": path.stat().st_size})


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a - a.mean()
    b = b - b.mean()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def input_spectrum_correlation(record, t_snap: float, eta_at_absorption: float) -> float:
    """Pearson correlation of |alpha(z, t_snap)| against the input amplitude
    spectrum resampled through the frequency map omega = -eta*z."""
    idx = int(np.argmin(np.abs(record.field_times - t_snap)))
    prof = np.abs(record.polarisation[idx])
    t = record.times
    dt = record.grid.dt
    spec = np.fft.fft(record.input_series)
    freq = 2.0 * np.pi * np.fft.fftfreq(t.size, d=dt)
    order = np.argsort(freq)
    freq, spec = freq[order], np.abs(spec[order]) * dt
    omega_of_z = -eta_at_absorption * record.grid.z_axis
    mapped = np.interp(omega_of_z, freq, spec)
    return _pearson(prof, mapped)


def envelope_correlation(record: EitRecord, t_snap: float) -> float:
    """Pearson correlation of the stored dark-polariton spatial profile with
    the input temporal envelope mapped through z = v_g*(t_capture - t).

    v_g is the analytic dark-polariton group velocity; the capture instant
    is scanned across the control switch-off ramp (the freeze is spread
    over the ramp, so the map's registration is not sharp) and the best
    correlation is reported.
    """
    cfg = record.config
    idx = int(np.argmin(np.abs(record.field_times - t_snap)))
    pol = np.abs(eit_polariton(record)[idx])
    v_g = 1.0 / cfg.group_delay  # normalized length per us
    z_norm = np.linspace(0.0, 1.0, record.grid.nz)
    env_t = np.abs(record.input_series)
    span = max(2.0 * cfg.ramp_tau, 1.0)
    best = -1.0
    for t_cap in np.linspace(cfg.switch_down - 2.0 * span, cfg.switch_down + span, 61):
        env = np.interp(t_cap - z_norm / v_g, record.times, env_t)
        best = max(best, _pearson(pol, env))
    return best


def balance_residual(record) -> float:
    """Worst |d/dt (N/g int|alpha|^2 dz) - boundary flux| over peak flux."""
    dt = record.grid.dt
    stored = record.alpha_norm_series * (record.linear_density / record.g)
    rate = np.gradient(stored, dt)
    flux = np.abs(record.input_series) ** 2 - np.abs(record.output_series) ** 2
    peak = float(np.max(np.abs(record.input_series) ** 2))
    if peak == 0.0:
        return 0.0
    return float(np.max(np.abs(rate - flux))) / peak


def _gem_windows(config: GemConfig):
    """Default efficiency windows of the GEM kinds: the storage and the
    recall side of the switch."""
    ts = config.stark.switch_time
    return (0.0, ts), (ts, config.grid.t_max)


def _eit_windows(config: EitConfig):
    """Default efficiency windows of the EIT kind: until the control is off,
    and from its switch-on to the end."""
    return (0.0, config.switch_down + 4.0 * config.ramp_tau), (config.switch_up, config.grid.t_max)


def _gem_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    config: GemConfig = spec.config
    params = spec.params
    record = run_gem(config, spec.pulse, field_stride=params.get("field_stride"))
    t = record.times
    writer.csv(
        "input_output.csv",
        "t_us,in_re,in_im,out_re,out_im",
        (t, record.input_series.real, record.input_series.imag,
         record.output_series.real, record.output_series.imag),
    )
    scalars = {}
    in_win, echo_win = params["input_window"], params["echo_window"]
    sigma = efficiency_numeric(record, in_win, echo_win)
    rep = fidelity(record.input_series, record.output_series, record.grid.dt, sigma,
                   echo_window=echo_win)
    scalars.update(
        sigma=sigma,
        sigma_analytic=efficiency_analytic(config.beta),
        fidelity=rep.fidelity,
        shape=rep.shape,
        tau_us=rep.tau,
        echo_peak_us=echo_peak_time(record),
        balance_residual=balance_residual(record),
        beta=config.beta,
    )

    if "spectrum_time" in params:
        t_snap = params["spectrum_time"]
        eta_abs = config.stark.eval(spec.pulse.center)
        scalars["spectrum_corr"] = input_spectrum_correlation(record, t_snap, eta_abs)

    if dump_fields:
        z = record.grid.z_axis
        zhdr = "t_us," + ",".join(f"{v:.9g}" for v in z)
        writer.csv("e_field_mag.csv", zhdr, (record.field_times, np.abs(record.e_field)))
        writer.csv("polarisation_mag.csv", zhdr,
                   (record.field_times, np.abs(record.polarisation)))

    if spec.kind == "kspace_report":
        ks = to_kspace(record, config.linear_density)
        khdr = "t_us," + ",".join(f"{v:.9g}" for v in ks.k_axis)
        writer.csv("psi_mag.csv", khdr, (ks.times, np.abs(ks.psi)))
        writer.csv("phi_mag.csv", khdr, (ks.times, np.abs(ks.phi)))
        cen = centroid_series(ks)
        writer.csv("centroid.csv", "t_us,k_centroid,eta",
                   (ks.times, cen, config.stark.eval(ks.times)))
        mid = int(np.argmin(np.abs(ks.times - 0.5 * (in_win[1] + config.stark.switch_time))))
        scalars["phi_residual_mid_storage"] = phi_residual(ks, mid)
    return scalars, None


def _eit_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    config: EitConfig = spec.config
    params = spec.params
    record = run_eit(config, spec.pulse, field_stride=params.get("field_stride"))
    t = record.times
    writer.csv(
        "input_output.csv",
        "t_us,in_re,in_im,out_re,out_im,omega_c",
        (t, record.input_series.real, record.input_series.imag,
         record.output_series.real, record.output_series.imag,
         record.omega_c_series),
    )
    in_win, echo_win = params["input_window"], params["echo_window"]
    scalars = {"sigma": efficiency_numeric(record, in_win, echo_win)}

    hold = (record.field_times > in_win[1] + 2.0) & (record.field_times < config.switch_up - 2.0)
    if np.any(hold):
        profiles = np.abs(record.spin_wave[hold])
        ref = profiles[0]
        drift = np.max(np.linalg.norm(profiles - ref, axis=1)) / np.linalg.norm(ref)
        scalars["spinwave_drift"] = float(drift)
    t_snap = params.get("envelope_time", 0.5 * (config.switch_down + config.switch_up))
    scalars["envelope_corr"] = envelope_correlation(record, t_snap)

    if dump_fields:
        z = record.grid.z_axis
        zhdr = "t_us," + ",".join(f"{v:.9g}" for v in z)
        writer.csv("e_field_mag.csv", zhdr, (record.field_times, np.abs(record.e_field)))
        writer.csv("spin_wave_mag.csv", zhdr, (record.field_times, np.abs(record.spin_wave)))
        writer.csv("polariton_mag.csv", zhdr,
                   (record.field_times, np.abs(eit_polariton(record))))
    return scalars, None


def _sweep_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    params = spec.params
    interval = tuple(params["interval"])
    betas = params.get("betas", [spec.config.beta])
    modes = params["mode_indices"]
    rows = mode_fidelity_sweep(
        spec.config, interval, betas, modes,
        delta=params.get("delta", 0.0), workers=workers,
    )
    writer.csv(
        "sweep.csv",
        "beta,mode_n,sigma,fidelity,shape,tau_us,delta",
        (
            np.array([r.beta for r in rows]),
            np.array([float(r.mode_n) for r in rows]),
            np.array([r.sigma for r in rows]),
            np.array([r.fidelity for r in rows]),
            np.array([r.shape for r in rows]),
            np.array([r.tau_us for r in rows]),
            np.array([r.delta for r in rows]),
        ),
    )
    summary = {}
    for beta in betas:
        fs = [r.fidelity for r in rows if r.beta == beta]
        summary[f"{beta:g}"] = {
            "min_fidelity": min(fs),
            "mean_fidelity": sum(fs) / len(fs),
            "delta": next(r.delta for r in rows if r.beta == beta),
        }
    writer.json("summary.json", {"interval": list(interval), "per_beta": summary})
    scalars = {"n_rows": len(rows)}
    for beta, s in summary.items():
        scalars[f"min_F_beta_{beta}"] = s["min_fidelity"]
    return scalars, summary


def _delta_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    params = spec.params
    interval = tuple(params["interval"])
    probe = params["probe_mode"]
    res = find_delta(spec.config, interval, probe,
                     search_halfwidth=params.get("search_halfwidth"))
    payload = {
        "delta": res.delta,
        "fidelity": res.fidelity,
        "fidelity_at_zero": res.fidelity_at_zero,
        "improved": res.improved,
        "probe_mode": probe,
        "interval": list(interval),
    }
    verify = {}
    for n in params.get("verify_modes", []):
        rep = _mode_report(spec.config, n, interval, res.delta)
        verify[str(n)] = {"fidelity": rep.fidelity, "sigma": rep.sigma}
    if verify:
        payload["verify_modes"] = verify
    writer.json("delta.json", payload)
    scalars = {"delta": res.delta, "fidelity": res.fidelity,
               "fidelity_at_zero": res.fidelity_at_zero}
    return scalars, None


def _check_windows(config, pulse: PulseSpec, params: dict):
    """Load-time check of the kinds that score an echo: the efficiency
    windows are nonempty and disjoint, the pulse sampled on the grid
    carries energy in the input window, and the echo window holds at least
    two grid samples and does not end before the input window starts (an
    echo cannot be scored there)."""
    in_win, echo_win = params["input_window"], params["echo_window"]
    _at("params", check_efficiency_windows, in_win, echo_win)
    t = config.grid.t_axis
    if window_energy(t, pulse.evaluate(t), in_win, config.grid.dt) <= 0.0:
        raise SpecValidationError(
            f"params.input_window: the pulse carries no energy in {list(in_win)}")
    if np.count_nonzero((t >= echo_win[0]) & (t <= echo_win[1])) < 2:
        raise SpecValidationError(
            f"params.echo_window: {list(echo_win)} holds fewer than two grid samples")
    if echo_win[1] <= in_win[0]:
        raise SpecValidationError(
            f"params.echo_window: {list(echo_win)} ends before the input window starts")


def _check_gem_run(config: GemConfig, pulse: PulseSpec, params: dict):
    """A grid sample after the switch, where the echo peak is sought, and
    _check_windows."""
    if not config.grid.t_max > config.stark.switch_time:
        raise SpecValidationError(
            f"config.stark.switch_time: no grid sample after {config.stark.switch_time:g} "
            f"(t_max = {config.grid.t_max:g})")
    _check_windows(config, pulse, params)


def _check_mode_params(config: GemConfig, pulse, params: dict):
    """Load-time check of the mode kinds (which take no pulse): the window,
    every mode and every optical depth the run will use."""
    interval = params["interval"]
    _at("params.interval", check_mode_run, config, interval, ())
    for key in ("mode_indices", "probe_mode", "verify_modes"):
        if key in params:
            modes = params[key] if isinstance(params[key], list) else [params[key]]
            _at(f"params.{key}", check_mode_run, config, interval, modes)
    for i, beta in enumerate(params.get("betas", ())):
        _at(f"params.betas[{i}]", config.with_beta, beta)


@dataclass(frozen=True)
class _Kind:
    parse_config: Callable
    pulse: bool  # the kind requires a pulse; otherwise it rejects one
    required_params: dict
    optional_params: dict
    check: Optional[Callable]  # check(config, pulse, params), after parsing
    run: Callable  # run(spec, writer, workers, dump_fields) -> (scalars, summary)
    # windows(config) -> the (input_window, echo_window) a spec leaves out
    windows: Optional[Callable] = None


_GEM_PARAMS = {"input_window": _pair, "echo_window": _pair, "field_stride": _stride,
               "spectrum_time": _number}
_EIT_PARAMS = {"input_window": _pair, "echo_window": _pair, "field_stride": _stride,
               "envelope_time": _number}

_KINDS = {
    "gem_run": _Kind(_gem_config, True, {}, _GEM_PARAMS, _check_gem_run, _gem_artifacts,
                     _gem_windows),
    "kspace_report": _Kind(_gem_config, True, {}, _GEM_PARAMS, _check_gem_run, _gem_artifacts,
                           _gem_windows),
    "eit_run": _Kind(_eit_config, True, {}, _EIT_PARAMS, _check_windows, _eit_artifacts,
                     _eit_windows),
    "fidelity_sweep": _Kind(
        _gem_config, False, {"interval": _pair, "mode_indices": _int_list},
        {"betas": _number_list, "delta": _number_or_auto}, _check_mode_params, _sweep_artifacts),
    "delta_search": _Kind(
        _gem_config, False, {"interval": _pair, "probe_mode": _integer},
        {"verify_modes": _int_list, "search_halfwidth": _positive}, _check_mode_params,
        _delta_artifacts),
}


def _evaluate_checks(spec: ExperimentSpec, scalars: dict, summary: Optional[dict]) -> list:
    out = []
    for name, target in spec.checks.items():
        _, value_of, passes, _ = _CHECKS[name]
        if passes is None:
            continue
        v = value_of(scalars, summary, spec.checks)
        out.append({
            "name": name,
            "passed": v is not None and bool(passes(v, target)),
            "value": v,
            "expected": list(target) if isinstance(target, tuple) else target,
        })
    return out


def run_experiment(
    spec: ExperimentSpec,
    out_root,
    *,
    workers: Optional[int] = None,
    dump_fields: bool = False,
) -> ExperimentResult:
    """Run one experiment spec, writing artifacts and a manifest under
    out_root/<output_dir>.  Status is "ok" only if every attached check
    passed; solver failures mark the manifest incomplete and re-raise."""
    out_dir = Path(out_root) / spec.output_dir
    writer = _ArtifactWriter(out_dir)
    try:
        scalars, summary = _KINDS[spec.kind].run(spec, writer, workers, dump_fields)
    except Exception:
        manifest = {
            "name": spec.name,
            "status": "incomplete",
            "files": writer.files,
            "scalars": {},
            "checks": [],
        }
        (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        raise

    checks = _evaluate_checks(spec, scalars, summary)
    status = "ok" if all(c["passed"] for c in checks) else "failed"
    manifest = {
        "name": spec.name,
        "status": status,
        "files": writer.files,
        "scalars": scalars,
        "checks": checks,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(
        name=spec.name,
        status=status,
        manifest_path=manifest_path,
        scalars=scalars,
        checks=checks,
        files=writer.files,
    )
