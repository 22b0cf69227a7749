"""Experiment specs: strict JSON ingestion, orchestration, artifact output.

A spec document mirrors the configuration dataclasses field for field.
Each spec kind is declared once, in `_KINDS`: its config type, whether it
takes a pulse, the params it requires and accepts, its load-time check, its
runner and, for the kinds that score an echo, its default efficiency
windows.  `load_spec` rejects unknown keys (pulse keys its kind never
reads included), wrong types, every configuration invariant and a grid
numpy cannot allocate, with the dotted key path, so a spec that loads
cannot fail on configuration afterwards.  A runner returns the scalars
its run records, and each check compares one of them with its target.
GEM and EIT runs write their input/output series through one function.
Every field_stride-th row streams from the solver's march, maps or not,
one row at a time as it makes them, into the maps and the scalars that
read them: a run holds copies of the single rows a scalar reads, never
the rows' history.  Each such row is picked once, on the strided times the
load checks use.  A run calls the readers a caller with a stored record
calls, which take the rows they read: KSpaceRecord.push and eit_polariton
on each row, then centroid_series, phi_residual,
input_spectrum_correlation and envelope_correlation.
Artifacts are 1-D series as CSV with fixed full-precision formatting, 2-D
magnitude maps as `.npy` (written a row at a time as the run makes them,
so no map, k-space maps included, is ever whole in memory, and deleted
if the run fails before they are complete), JSON summaries
and a manifest listing names, checksums and headline scalars; rerunning
a spec reproduces every data file byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from .core import (ConfigError, GemConfig, Grid, PulseSpec, StarkProfile,
                   make_plane_wave_mode)
from .eit import EitConfig, EitRecord, eit_polariton, omega_c_schedule, run_eit
from .kspace import KSpaceRecord, centroid_series, phi_residual
from .kspace import to_kspace  # noqa: F401  (traced by perfbench)
from .metrics import (
    SweepRow,
    _gem_windows,
    _mode_run,
    _score,
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
from .solver import _snapshot_rows, run_gem

__all__ = ["ExperimentSpec", "ExperimentResult", "SpecValidationError", "balance_residual",
           "load_spec", "run_experiment"]

_FMT = "%.17e"
# bytes read at a time when an artifact is hashed, so hashing holds no
# second copy of a large file
_HASH_CHUNK_BYTES = 1 << 16


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
_GAUSSIAN_KEYS = {"amplitude": _number, "center": _number, "width": _number}
# pulse kind -> the optional keys it reads
_PULSE_KEYS = {
    "gaussian": _GAUSSIAN_KEYS,
    "modulated": {**_GAUSSIAN_KEYS, "mod_freq": _number},
    "plane_wave_window": {"amplitude": _number, "mode_index": _integer, "window": _pair},
}


def _pulse(obj, path):
    """A pulse with the keys its kind reads; a kind PulseSpec does not know
    takes any pulse key, so PulseSpec names the kind."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    optional = (_PULSE_KEYS[kind] if isinstance(kind, str) and kind in _PULSE_KEYS
                else {k: v for keys in _PULSE_KEYS.values() for k, v in keys.items()})
    return _object(PulseSpec, {"kind": _string}, optional)(obj, path)


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


def _within(v, target):
    return target[0] <= v <= target[1]


_GEM_KINDS = ("gem_run", "kspace_report")
_KSPACE = ("kspace_report",)
_EIT = ("eit_run",)

# check -> (target parser, scalar it tests, comparator, kinds whose runs
# record that scalar); a scalar and comparator of None mark a modifier of
# another check
_CHECKS = {
    "echo_peak_us": (_pair, "echo_peak_us", _within, _GEM_KINDS),
    "sigma_abs_vs_analytic": (_number, "sigma_abs_error", operator.lt, _GEM_KINDS),
    "balance_residual_max": (_number, "balance_residual", operator.lt, _GEM_KINDS),
    "phi_residual_max": (_number, "phi_residual_mid_storage", operator.lt, _KSPACE),
    "spectrum_corr_min": (_number, "spectrum_corr", operator.gt, _GEM_KINDS),
    "envelope_corr_min": (_number, "envelope_corr", operator.gt, _EIT),
    "spinwave_drift_max": (_number, "spinwave_drift", operator.lt, _EIT),
    "sigma_min": (_number, "sigma", operator.gt, _GEM_KINDS + _EIT),
    "fidelity_min": (_number, "fidelity", operator.gt, _GEM_KINDS + ("delta_search",)),
    "min_fidelity": (_number, "min_fidelity", operator.gt, ("fidelity_sweep",)),
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
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past int()'s digit limit
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
        params.setdefault("field_stride", max(1, config.grid.nt // 512))  # about 512 rows
    checks = _checks(top.get("checks", {}), "checks")
    for check in checks:
        if kind not in _CHECKS[check][3]:
            raise SpecValidationError(f"checks.{check} does not apply to kind {kind}")
    if entry.check is not None:
        try:
            entry.check(config, pulse, params, checks)
        except MemoryError as exc:  # the checks sample the pulse on the time axis
            raise SpecValidationError(f"config.grid: {exc}") from exc

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


def _json_text(payload) -> str:
    """payload as strict JSON text, a non-finite number written as null."""
    def finite(v):
        if isinstance(v, float):
            return v if math.isfinite(v) else None
        if isinstance(v, dict):
            return {k: finite(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [finite(x) for x in v]
        return v

    return json.dumps(finite(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


class _ArtifactWriter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def csv(self, name: str, header: str, columns) -> Path:
        """One CSV file; columns are 1-D series, side by side, each value
        written with fmt _FMT."""
        path = self.out_dir / name
        np.savetxt(path, np.column_stack(columns), fmt=_FMT, delimiter=",", header=header,
                   comments="")
        self._register(path)
        return path

    @contextmanager
    def npy(self, names, times: np.ndarray, width: int):
        """.npy files side by side, one per name, each the C-order float64
        array of times then |rows| (width values), one row per time.  The
        headers are written first; push(j, rows) then writes the row at
        times[j], one complex row per name, each row's magnitudes going into
        one float64 row buffer beside its time.  Rows come in order, so no
        map is ever whole in memory, and every file holds the bytes np.save
        writes for the assembled array.  The files are complete when the
        with statement ends and are listed by register, in manifest order;
        if its body raises, they are deleted, so no truncated map is
        left."""
        header = {"descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
                  "fortran_order": False, "shape": (times.shape[0], width + 1)}
        paths = [self.out_dir / name for name in names]
        buf = np.empty(width + 1)
        try:
            with ExitStack() as stack:
                files = [stack.enter_context(path.open("wb")) for path in paths]
                for f in files:
                    np.lib.format.write_array_header_1_0(f, header)

                def push(j, rows):
                    buf[0] = times[j]
                    for f, row in zip(files, rows):
                        np.abs(row, out=buf[1:])
                        f.write(buf)

                yield push
        except BaseException:
            for path in paths:
                path.unlink(missing_ok=True)
            raise

    def json(self, name: str, payload: dict) -> Path:
        path = self.out_dir / name
        path.write_text(_json_text(payload))
        self._register(path)
        return path

    def register(self, names) -> None:
        """List files written by npy, in this order."""
        for name in names:
            self._register(self.out_dir / name)

    def _register(self, path: Path):
        h = hashlib.sha256()
        with path.open("rb") as f:
            while chunk := f.read(_HASH_CHUNK_BYTES):
                h.update(chunk)
        self.files.append({"name": path.name, "sha256": h.hexdigest(), "bytes": path.stat().st_size})


def _keep_rows(kept: dict, j: int, wanted) -> None:
    """Copy into kept[key] each row a scalar reads, as it arrives: wanted
    holds (key, index, row) with index a stored-row index (or None) and row
    the row at stored-row index j."""
    for key, index, row in wanted:
        if index == j:
            kept[key] = row.copy()


def _nearest_row(field_times: np.ndarray, t: float) -> int:
    """Index of the stored row nearest time t (the first of a tie)."""
    return int(np.argmin(np.abs(field_times - t)))


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a - a.mean()
    b = b - b.mean()
    denom = float(np.linalg.norm(a) * np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.dot(a, b) / denom)


def input_spectrum_correlation(record, alpha_row: np.ndarray, eta_at_absorption: float) -> float:
    """Pearson correlation of |alpha(z)|, one alpha row of the run `record`,
    against the run's input amplitude spectrum resampled through the
    frequency map omega = -eta*z."""
    prof = np.abs(alpha_row)
    t = record.times
    dt = record.grid.dt
    spec = np.fft.fft(record.input_series)
    freq = 2.0 * np.pi * np.fft.fftfreq(t.size, d=dt)
    order = np.argsort(freq)
    freq, spec = freq[order], np.abs(spec[order]) * dt
    omega_of_z = -eta_at_absorption * record.grid.z_axis
    mapped = np.interp(omega_of_z, freq, spec)
    return _pearson(prof, mapped)


def envelope_correlation(record: EitRecord, polariton_row: np.ndarray) -> float:
    """Pearson correlation of a stored dark-polariton spatial profile, one
    eit_polariton row of the run `record`, with the run's input temporal
    envelope mapped through z = v_g*(t_capture - t).

    v_g is the analytic dark-polariton group velocity; the capture instant
    is scanned across the control switch-off ramp (the freeze is spread
    over the ramp, so the map's registration is not sharp) and the best
    correlation is reported.
    """
    cfg = record.config
    pol = np.abs(polariton_row)
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
    # a zero norm times an N/g past the float range is NaN, and fails its check
    with np.errstate(invalid="ignore"):
        stored = record.alpha_norm_series * (record.config.linear_density / record.config.g)
    rate = np.gradient(stored, dt)
    flux = np.abs(record.input_series) ** 2 - np.abs(record.output_series) ** 2
    peak = float(np.max(np.abs(record.input_series) ** 2))
    if peak == 0.0:
        return 0.0
    return float(np.max(np.abs(rate - flux))) / peak


def _eit_windows(config: EitConfig):
    """Default efficiency windows of the EIT kind: until the control is off,
    and from its switch-on to the end."""
    return (0.0, config.switch_down + 4.0 * config.ramp_tau), (config.switch_up, config.grid.t_max)


def _write_record(writer: _ArtifactWriter, record, columns: dict, maps):
    """input_output.csv: t_us, the input and output series, then the named
    extra columns.  When the run streamed space-time maps (maps, the names
    of the .npy files written during it, |E| first), also z_axis.csv, the z
    axis of their |value| columns, and then the maps."""
    writer.csv(
        "input_output.csv",
        ",".join(["t_us,in_re,in_im,out_re,out_im", *columns]),
        (record.times, record.input_series.real, record.input_series.imag,
         record.output_series.real, record.output_series.imag, *columns.values()),
    )
    if maps:
        writer.csv("z_axis.csv", "z_mm", (record.grid.z_axis,))
        writer.register(maps)


def _gem_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    """A GEM run whose field_stride-th rows stream, one at a time, into the
    maps it writes (|E| and |alpha| with dump_fields; kspace_report's |Psi|
    and |Phi|, from the k-space view's row step, which keeps each row's
    power and centroid) and into the copies of the single rows its scalars
    read."""
    config: GemConfig = spec.config
    params = spec.params
    kspace = spec.kind in _KSPACE
    times = _stored_times(config, params)
    spectrum_row = (_nearest_row(times, params["spectrum_time"])
                    if "spectrum_time" in params else None)
    residual_row = _residual_row(config, params, times) if kspace else None
    field_maps = ["e_field_mag.npy", "polarisation_mag.npy"] if dump_fields else []
    kspace_maps = ["psi_mag.npy", "phi_mag.npy"] if kspace else []
    ks = KSpaceRecord.empty(config, times) if kspace else None
    kept = {}

    with writer.npy(field_maps + kspace_maps, times, config.grid.nz) as push:
        def consume(j, e, a):
            field_rows = [e, a] if dump_fields else []
            if ks is None:
                push(j, field_rows)
            else:
                ks.push(j, e, a, lambda psi, phi: push(j, [*field_rows, psi, phi]))
            _keep_rows(kept, j, (("spectrum", spectrum_row, a), ("residual_e", residual_row, e),
                                 ("residual_a", residual_row, a)))

        record = run_gem(config, spec.pulse, field_stride=params["field_stride"], consume=consume)
    _write_record(writer, record, {}, field_maps)
    in_win, echo_win = params["input_window"], params["echo_window"]
    sigma = efficiency_numeric(record, in_win, echo_win)
    sigma_analytic = efficiency_analytic(config.beta)
    rep = fidelity(record.input_series, record.output_series, record.grid.dt, sigma,
                   echo_window=echo_win)
    scalars = {
        "sigma": sigma,
        "sigma_analytic": sigma_analytic,
        "sigma_abs_error": abs(sigma - sigma_analytic),
        "fidelity": rep.fidelity,
        "shape": rep.shape,
        "tau_us": rep.tau,
        "echo_peak_us": echo_peak_time(record),
        "balance_residual": balance_residual(record),
        "beta": config.beta,
    }

    if spectrum_row is not None:
        # eta where the pulse is absorbed: at its centre, or mid-window
        pulse = spec.pulse
        eta_abs = config.stark.eval(
            0.5 * sum(pulse.window) if pulse.kind == "plane_wave_window" else pulse.center)
        scalars["spectrum_corr"] = input_spectrum_correlation(record, kept["spectrum"], eta_abs)

    if ks is not None:
        # k-space maps: one row per stored time, t_us then |value| on k_axis.csv
        writer.csv("k_axis.csv", "k_per_mm", (ks.k_axis,))
        writer.register(kspace_maps)
        writer.csv("centroid.csv", "t_us,k_centroid,eta",
                   (times, centroid_series(ks), config.stark.eval(times)))
        try:
            residual = phi_residual(ks, residual_row, kept["residual_e"], kept["residual_a"])
        except ValueError:  # decay has emptied the row: NaN, which fails its check
            residual = math.nan
        scalars["phi_residual_mid_storage"] = residual
    return scalars


def _stored_times(config, params: dict) -> np.ndarray:
    """Times of the rows a GEM or EIT run of params hands on: every
    field_stride-th grid time and the last."""
    return config.grid.t_axis[_snapshot_rows(config.grid.nt, params["field_stride"])]


def _residual_row(config: GemConfig, params: dict, field_times: np.ndarray) -> int:
    """Stored row where kspace_report reads its Phi residual: the one
    nearest mid-storage, halfway from the input window's end to the switch."""
    t_mid = 0.5 * (params["input_window"][1] + config.stark.switch_time)
    return _nearest_row(field_times, t_mid)


def _hold_rows(config: EitConfig, input_window, field_times: np.ndarray) -> np.ndarray:
    """Stored rows that score the spin-wave drift: 2 us after the input
    window until 2 us before the control switches back on."""
    return (field_times > input_window[1] + 2.0) & (field_times < config.switch_up - 2.0)


def _eit_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    """An EIT run whose field_stride-th rows stream, one at a time, into the
    maps it writes with dump_fields (|E|, |S| and the |polariton|), into
    the spin-wave drift of its hold rows, read against the first, and into
    a copy of the polariton row its envelope correlation reads."""
    config: EitConfig = spec.config
    params = spec.params
    in_win, echo_win = params["input_window"], params["echo_window"]
    times = _stored_times(config, params)
    hold = _hold_rows(config, in_win, times)
    envelope_row = _nearest_row(
        times, params.get("envelope_time", 0.5 * (config.switch_down + config.switch_up)))
    maps = ["e_field_mag.npy", "spin_wave_mag.npy", "polariton_mag.npy"] if dump_fields else []
    kept = {}
    ref = ref_norm = None  # |S| of the first hold row and its norm
    worst = 0.0  # largest distance of a hold row's |S| from ref

    with writer.npy(maps, times, config.grid.nz) as push:
        def consume(j, e, p, s):
            nonlocal ref, ref_norm, worst
            if dump_fields:
                push(j, [e, s, eit_polariton(config, times[j], e, s)])
            _keep_rows(kept, j, (("envelope_e", envelope_row, e), ("envelope_s", envelope_row, s)))
            if hold[j]:
                profile = np.abs(s)
                if ref is None:
                    ref, ref_norm = profile, np.linalg.norm(profile)
                # axis=-1 sums the squares as the stored rows' 2-D norm does
                worst = max(worst, np.linalg.norm(profile - ref, axis=-1))

        record = run_eit(config, spec.pulse, field_stride=params["field_stride"], consume=consume)
    _write_record(writer, record, {"omega_c": omega_c_schedule(config, record.times)}, maps)
    scalars = {"sigma": efficiency_numeric(record, in_win, echo_win)}
    if ref is not None:
        scalars["spinwave_drift"] = float(worst / ref_norm)
    polariton = eit_polariton(config, times[envelope_row], kept["envelope_e"],
                              kept["envelope_s"])
    scalars["envelope_corr"] = envelope_correlation(record, polariton)
    return scalars


def _sweep_artifacts(spec: ExperimentSpec, writer: _ArtifactWriter, workers, dump_fields: bool):
    params = spec.params
    interval = tuple(params["interval"])
    betas = params.get("betas", [spec.config.beta])
    modes = params["mode_indices"]
    rows = mode_fidelity_sweep(
        spec.config, interval, betas, modes,
        delta=params.get("delta", 0.0), workers=workers,
    )
    names = [f.name for f in fields(SweepRow)]
    writer.csv("sweep.csv", ",".join(names),
               [[getattr(r, name) for r in rows] for name in names])
    summary = {}
    for beta in betas:
        fs = [r.fidelity for r in rows if r.beta == beta]
        summary[f"{beta:g}"] = {
            "min_fidelity": min(fs),
            "mean_fidelity": sum(fs) / len(fs),
            "delta": next(r.delta for r in rows if r.beta == beta),
        }
    writer.json("summary.json", {"interval": list(interval), "per_beta": summary})
    beta_from = spec.checks.get("min_fidelity_beta_from", 0.0)
    scalars = {"n_rows": len(rows),
               "min_fidelity": min(r.fidelity for r in rows if r.beta >= beta_from)}
    for beta, s in summary.items():
        scalars[f"min_F_beta_{beta}"] = s["min_fidelity"]
    return scalars


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
        if n == probe:  # find_delta scored its probe run at res.delta
            verify[str(n)] = {"fidelity": res.fidelity, "sigma": res.sigma}
        else:
            rep = _score(_mode_run(spec.config, n, interval), res.delta)
            verify[str(n)] = {"fidelity": rep.fidelity, "sigma": rep.sigma}
    if verify:
        payload["verify_modes"] = verify
    writer.json("delta.json", payload)
    return {"delta": res.delta, "fidelity": res.fidelity, "fidelity_at_zero": res.fidelity_at_zero}


def _check_windows(config, pulse: PulseSpec, params: dict):
    """Load-time check of the kinds that score an echo: the pulse is finite
    at the grid times and step midpoints, where the solvers sample it, and
    carries energy in the input window; the efficiency windows are nonempty
    and disjoint; the echo window holds at least two grid samples and does
    not end before the input window starts (no echo can be scored there)."""
    t, dt = config.grid.t_axis, config.grid.dt
    e_in = pulse.evaluate(t)
    if not np.isfinite(np.r_[e_in, pulse.evaluate(t[:-1] + 0.5 * dt)]).all():
        raise SpecValidationError(
            "pulse: its samples at the grid times and the step midpoints are not all finite")
    in_win, echo_win = params["input_window"], params["echo_window"]
    _at("params", check_efficiency_windows, in_win, echo_win)
    if not window_energy(t, e_in, in_win, dt) > 0.0:
        raise SpecValidationError(
            f"params.input_window: the pulse carries no energy in {list(in_win)}")
    _check_echo_samples(config, echo_win, "params.echo_window")
    if echo_win[1] <= in_win[0]:
        raise SpecValidationError(
            f"params.echo_window: {list(echo_win)} ends before the input window starts")


def _check_echo_samples(config, echo_win, where: str):
    """The echo window holds at least two grid samples (on one sample its
    energy quadrature is zero); a rejection starts with `where`."""
    t = config.grid.t_axis
    if np.count_nonzero((t >= echo_win[0]) & (t <= echo_win[1])) < 2:
        raise SpecValidationError(f"{where}: {list(echo_win)} holds fewer than two grid samples")


def _check_switch(config: GemConfig):
    """A grid sample after the switch, where the echo is sought."""
    if not config.grid.t_max > config.stark.switch_time:
        raise SpecValidationError(
            f"config.stark.switch_time: no grid sample after {config.stark.switch_time:g} "
            f"(t_max = {config.grid.t_max:g})")


def _check_gem_run(config: GemConfig, pulse: PulseSpec, params: dict, checks: dict):
    """_check_switch (the echo peak is sought after the switch),
    _check_windows, and a spectrum time when the spec checks the spectrum
    correlation."""
    _check_switch(config)
    _check_windows(config, pulse, params)
    if "spectrum_corr_min" in checks and "spectrum_time" not in params:
        raise SpecValidationError(
            "checks.spectrum_corr_min: needs params.spectrum_time, the time the stored "
            "spectrum is read")


def _check_kspace_report(config: GemConfig, pulse: PulseSpec, params: dict, checks: dict):
    """_check_gem_run, and a residual row the pulse has reached: by that
    row's time the input, sampled on the grid, has delivered more than half
    its energy (earlier, the medium holds little or nothing to transform)."""
    _check_gem_run(config, pulse, params, checks)
    t, dt = config.grid.t_axis, config.grid.dt
    e_in = pulse.evaluate(t)
    t_rows = _stored_times(config, params)
    t_row = t_rows[_residual_row(config, params, t_rows)]
    if not window_energy(t, e_in, (0.0, t_row), dt) > window_energy(t, e_in, (0.0, t[-1]), dt) / 2:
        raise SpecValidationError(
            f"params: the k-space residual row (t = {t_row:g} us, the stored row nearest "
            "(input_window[1] + switch_time)/2) comes before the pulse has delivered more "
            "than half its energy")


def _check_eit_run(config: EitConfig, pulse: PulseSpec, params: dict, checks: dict):
    """_check_windows, and a stored row to score spinwave_drift_max when
    the spec checks it."""
    _check_windows(config, pulse, params)
    if "spinwave_drift_max" in checks:
        t = _stored_times(config, params)
        if not np.any(_hold_rows(config, params["input_window"], t)):
            raise SpecValidationError(
                "checks.spinwave_drift_max: no stored row lies between input_window[1] + 2 "
                f"and switch_up - 2 ({params['input_window'][1] + 2.0:g} to "
                f"{config.switch_up - 2.0:g} us)")


def _check_mode_params(config: GemConfig, pulse, params: dict, checks: dict):
    """Load-time check of the mode kinds (which take no pulse): the GEM
    kinds' switch rules on their fixed echo window (switch_time, t_max),
    the interval, which sampled on the grid must carry a mode's energy into
    the storage window, every mode and every optical depth the run will
    use, one summary label per depth, and a min_fidelity_beta_from that
    modifies a min_fidelity check and selects at least one depth."""
    _check_switch(config)
    _check_echo_samples(config, _gem_windows(config)[1],
                        "config.stark.switch_time: the echo window (switch_time, t_max)")
    interval = params["interval"]
    _at("params.interval", check_mode_run, config, interval, ())
    t = config.grid.t_axis
    mode = make_plane_wave_mode(0, *interval).evaluate(t)  # |u_n| is the same for every n
    if not window_energy(t, mode, _gem_windows(config)[0], config.grid.dt) > 0.0:
        raise SpecValidationError(
            f"params.interval: a mode on {list(interval)}, sampled on the grid, carries no "
            f"energy by the switch (t = {config.stark.switch_time:g} us)")
    for key in ("mode_indices", "probe_mode", "verify_modes"):
        if key in params:
            modes = params[key] if isinstance(params[key], list) else [params[key]]
            _at(f"params.{key}", check_mode_run, config, interval, modes)
    labels = set()
    for i, beta in enumerate(params.get("betas", ())):
        _at(f"params.betas[{i}]", config.with_beta, beta)
        if f"{beta:g}" in labels:
            raise SpecValidationError(
                f"params.betas[{i}]: {beta!r} has the summary label {beta:g}, as an earlier beta")
        labels.add(f"{beta:g}")
    if "min_fidelity_beta_from" in checks:
        beta_from = checks["min_fidelity_beta_from"]
        if "min_fidelity" not in checks:
            raise SpecValidationError(
                "checks.min_fidelity_beta_from: modifies checks.min_fidelity, which is not set")
        if beta_from > max(params.get("betas", [config.beta])):
            raise SpecValidationError(
                f"checks.min_fidelity_beta_from: {beta_from!r} exceeds every beta the sweep runs")


@dataclass(frozen=True)
class _Kind:
    parse_config: Callable
    pulse: bool  # the kind requires a pulse; otherwise it rejects one
    required_params: dict
    optional_params: dict
    check: Optional[Callable]  # check(config, pulse, params, checks), after parsing
    run: Callable  # run(spec, writer, workers, dump_fields) -> scalars
    # windows(config) -> the (input_window, echo_window) a spec leaves out
    windows: Optional[Callable] = None


_GEM_PARAMS = {"input_window": _pair, "echo_window": _pair, "field_stride": _stride,
               "spectrum_time": _number}
_EIT_PARAMS = {"input_window": _pair, "echo_window": _pair, "field_stride": _stride,
               "envelope_time": _number}

_KINDS = {
    "gem_run": _Kind(_gem_config, True, {}, _GEM_PARAMS, _check_gem_run, _gem_artifacts,
                     _gem_windows),
    "kspace_report": _Kind(_gem_config, True, {}, _GEM_PARAMS, _check_kspace_report,
                           _gem_artifacts, _gem_windows),
    "eit_run": _Kind(_eit_config, True, {}, _EIT_PARAMS, _check_eit_run, _eit_artifacts,
                     _eit_windows),
    "fidelity_sweep": _Kind(
        _gem_config, False, {"interval": _pair, "mode_indices": _int_list},
        {"betas": _number_list, "delta": _number_or_auto}, _check_mode_params, _sweep_artifacts),
    "delta_search": _Kind(
        _gem_config, False, {"interval": _pair, "probe_mode": _integer},
        {"verify_modes": _int_list, "search_halfwidth": _positive}, _check_mode_params,
        _delta_artifacts),
}


def _evaluate_checks(spec: ExperimentSpec, scalars: dict) -> list:
    out = []
    for name, target in spec.checks.items():
        _, scalar, passes, _ = _CHECKS[name]
        if passes is None:
            continue
        v = scalars.get(scalar)
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
    workers: int = 1,
    dump_fields: bool = False,
) -> ExperimentResult:
    """Run one experiment spec, writing artifacts and a manifest under
    out_root/<output_dir>.  Status is "ok" only if every attached check
    passed; solver failures mark the manifest incomplete and re-raise.
    workers > 1 runs the modes of a sweep on a process pool."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    out_dir = Path(out_root) / spec.output_dir
    writer = _ArtifactWriter(out_dir)
    manifest = {"name": spec.name, "status": "incomplete", "files": writer.files,
                "scalars": {}, "checks": []}
    manifest_path = out_dir / "manifest.json"
    try:
        scalars = _KINDS[spec.kind].run(spec, writer, workers, dump_fields)
        checks = _evaluate_checks(spec, scalars)
        status = "ok" if all(c["passed"] for c in checks) else "failed"
        manifest.update(status=status, scalars=scalars, checks=checks)
    finally:
        manifest_path.write_text(_json_text(manifest))
    return ExperimentResult(
        name=spec.name,
        status=status,
        manifest_path=manifest_path,
        scalars=scalars,
        checks=checks,
        files=writer.files,
    )
