"""Spatial-Fourier diagnostics: normal modes, centroid transport, residuals.

The field/polarisation rows of a FieldRecord are transformed to k-space
where the lossless combination Psi(k,t) = k*E(k,t) + N*alpha(k,t) is
transported at dk/dt = -eta(t), while the orthogonal combination
Phi(k,t) = k*E(k,t) - N*alpha(k,t) stays unexcited wherever the interior
field/polarisation relation holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import FieldRecord

__all__ = [
    "KSpaceRecord",
    "to_kspace",
    "k_centroid",
    "phi_residual",
    "polariton_norm",
    "centroid_series",
]

_FLOOR_FRACTION = 1e-12  # minimum |Psi|^2 weight relative to the peak row
_TAPER_FRACTION = 0.10  # Tukey alpha: 5% cosine ramp on each z edge


@dataclass(frozen=True)
class KSpaceRecord:
    """k-space view of a run (record) at its stored field times.

    psi/phi rows correspond to times; k_axis is the centered discrete
    Fourier dual of the z grid, with spacing dk = 2*pi/(nz*dz).  Transforms
    are scaled so that sum |f~|^2 dk equals the plain rectangle sum of
    |f|^2 dz.  The grid and the linear density are read from the record.
    """

    record: FieldRecord
    k_axis: np.ndarray
    psi: np.ndarray
    phi: np.ndarray
    _row_power: np.ndarray  # sum_k |Psi|^2 at each stored time
    _peak: float  # the largest row power

    @property
    def times(self) -> np.ndarray:
        return self.record.field_times


def _transform(rows: np.ndarray, dz: float) -> np.ndarray:
    scale = dz / np.sqrt(2.0 * np.pi)
    return np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1) * scale


def to_kspace(record: FieldRecord) -> KSpaceRecord:
    """Transform the stored field rows of a run to k-space normal modes."""
    linear_density = record.config.linear_density
    dz = record.grid.dz
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(record.grid.nz, d=dz))
    e_t = _transform(record.e_field, dz)
    a_t = _transform(record.polarisation, dz)
    psi = k * e_t + linear_density * a_t
    phi = k * e_t - linear_density * a_t
    row_power = np.sum(np.abs(psi) ** 2, axis=-1)
    for arr in (psi, phi, k, row_power):
        arr.setflags(write=False)
    return KSpaceRecord(
        record=record,
        k_axis=k,
        psi=psi,
        phi=phi,
        _row_power=row_power,
        _peak=float(np.max(row_power)),
    )


def _lit(ks: KSpaceRecord) -> np.ndarray:
    """Rows whose |Psi|^2 weight exceeds the floor relative to the peak row."""
    return ks._row_power > _FLOOR_FRACTION * ks._peak


def _check_floor(ks: KSpaceRecord, t_index: int) -> None:
    if not _lit(ks)[t_index]:
        raise ValueError(
            f"|Psi|^2 at t index {t_index} is below {_FLOOR_FRACTION} of the peak row"
        )


def _centroid(k: np.ndarray, w: np.ndarray):
    """sum(k w) / sum(w) along the last axis of w, k = 0 bin excluded."""
    sel = k != 0.0
    return np.sum(k[sel] * w[..., sel], axis=-1) / np.sum(w[..., sel], axis=-1)


def k_centroid(ks: KSpaceRecord, t_index: int) -> float:
    """Weighted centroid sum(k |Psi|^2) / sum(|Psi|^2), k = 0 bin excluded."""
    _check_floor(ks, t_index)
    return float(_centroid(ks.k_axis, np.abs(ks.psi[t_index]) ** 2))


def centroid_series(ks: KSpaceRecord) -> np.ndarray:
    """k_centroid at every stored time (rows below the floor give nan)."""
    lit = _lit(ks)
    out = np.full(ks.times.size, np.nan)
    out[lit] = _centroid(ks.k_axis, np.abs(ks.psi[lit]) ** 2)
    return out


def _tukey(n: int, alpha: float) -> np.ndarray:
    """Symmetric Tukey window of n points, 0 < alpha < 1: a cosine ramp over
    alpha*(n-1)/2 samples on each edge and ones between.  The expressions
    are those of scipy.signal.windows.tukey, so the values are the same."""
    if n <= 1:
        return np.ones(n)
    m = np.arange(n, dtype=float)
    width = int(np.floor(alpha * (n - 1) / 2.0))
    m1 = m[0:width + 1]
    m3 = m[n - width - 1:]
    w1 = 0.5 * (1 + np.cos(np.pi * (-1 + 2.0 * m1 / alpha / (n - 1))))
    w3 = 0.5 * (1 + np.cos(np.pi * (-2.0 / alpha + 1 + 2.0 * m3 / alpha / (n - 1))))
    return np.concatenate((w1, np.ones(n - 2 * (width + 1)), w3))


def phi_residual(ks: KSpaceRecord, t_index: int) -> float:
    """||Phi|| / ||Psi|| at one stored time, boundary-apodized, k=0 excluded.

    The input/output field at the medium faces breaks periodicity and
    pollutes the raw transforms, so both rows are multiplied by a cosine
    taper (5% of the span on each edge, the numpy Tukey window _tukey)
    before transforming with numpy.fft.
    """
    _check_floor(ks, t_index)
    record = ks.record
    dz, linear_density = record.grid.dz, record.config.linear_density
    taper = _tukey(record.grid.nz, _TAPER_FRACTION)
    e_t = _transform(record.e_field[t_index] * taper, dz)
    a_t = _transform(record.polarisation[t_index] * taper, dz)
    k = ks.k_axis
    sel = k != 0.0
    psi = k[sel] * e_t[sel] + linear_density * a_t[sel]
    phi = k[sel] * e_t[sel] - linear_density * a_t[sel]
    denom = float(np.linalg.norm(psi))
    if denom == 0.0:
        raise ValueError("apodized Psi vanishes at this time index")
    return float(np.linalg.norm(phi)) / denom


def polariton_norm(ks: KSpaceRecord, t_index: int) -> float:
    """sum_k |Psi/sqrt(k^2+N^2)|^2 dk: the polariton occupation.

    An invariant of the motion while the slope is frozen (eta = 0), which
    is when the normalized mode is a meaningful excitation number; under a
    nonzero slope the combination is transported but not conserved.
    """
    if ks._peak == 0.0:
        return 0.0
    _check_floor(ks, t_index)
    grid, linear_density = ks.record.grid, ks.record.config.linear_density
    norm_factor = np.sqrt(ks.k_axis**2 + linear_density**2)
    q = np.abs(ks.psi[t_index] / norm_factor) ** 2
    return float(np.sum(q) * (2.0 * np.pi / (grid.nz * grid.dz)))
