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
# bytes of one block of complex rows in to_kspace and centroid_series (16 rows
# at nz = 4096); each block's temporaries are this size, not the record's
_BLOCK_BYTES = 1 << 20


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


def _block_rows(nz: int) -> int:
    """Rows of one complex block of _BLOCK_BYTES on an nz-point grid."""
    return max(1, _BLOCK_BYTES // (16 * nz))


def _weights(rows: np.ndarray) -> np.ndarray:
    """|rows|^2, squared in place in the one |rows| array."""
    w = np.abs(rows)
    return np.square(w, out=w)


def _transform(rows: np.ndarray, dz: float, out=None) -> np.ndarray:
    """fftshift(fft(rows)) * dz/sqrt(2*pi) along the last axis, into out when
    given; the shift is two slice copies."""
    f = np.fft.fft(rows, axis=-1)
    if out is None:
        out = np.empty_like(f)
    n = f.shape[-1]
    half = n // 2
    out[..., :half] = f[..., n - half:]
    out[..., half:] = f[..., :n - half]
    out *= dz / np.sqrt(2.0 * np.pi)
    return out


def to_kspace(record: FieldRecord) -> KSpaceRecord:
    """Transform the stored field rows of a run to k-space normal modes.

    Psi and Phi are filled a block of rows at a time (_BLOCK_BYTES of complex
    values per block): the block's N*alpha~ is built in Phi's own rows and
    k*E~ in one block buffer, so beyond Psi and Phi the build holds two
    blocks (that buffer and the FFT's output).  Each block takes the
    full-array operations in the same order -- fft, shift, times scale, then
    times k and times N, then the sum and the difference -- so the values
    are those of the full-array transform bit for bit.
    """
    linear_density = record.config.linear_density
    dz = record.grid.dz
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(record.grid.nz, d=dz))
    nrows, nz = record.e_field.shape
    psi = np.empty((nrows, nz), dtype=complex)
    phi = np.empty((nrows, nz), dtype=complex)
    row_power = np.empty(nrows)
    size = _block_rows(nz)
    e_t = np.empty((min(size, nrows), nz), dtype=complex)
    for lo in range(0, nrows, size):
        hi = min(lo + size, nrows)
        e, a_t = e_t[:hi - lo], phi[lo:hi]  # N*alpha~ waits in Phi's rows
        _transform(record.e_field[lo:hi], dz, out=e)
        _transform(record.polarisation[lo:hi], dz, out=a_t)
        e *= k
        a_t *= linear_density
        np.add(e, a_t, out=psi[lo:hi])
        np.subtract(e, a_t, out=a_t)
        row_power[lo:hi] = np.sum(_weights(psi[lo:hi]), axis=-1)
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
    return float(_centroid(ks.k_axis, _weights(ks.psi[t_index])))


def centroid_series(ks: KSpaceRecord) -> np.ndarray:
    """k_centroid at every stored time (rows below the floor give nan)."""
    lit = np.flatnonzero(_lit(ks))
    out = np.full(ks.times.size, np.nan)
    size = _block_rows(ks.k_axis.size)
    for lo in range(0, lit.size, size):
        rows = lit[lo:lo + size]
        out[rows] = _centroid(ks.k_axis, _weights(ks.psi[rows]))
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
