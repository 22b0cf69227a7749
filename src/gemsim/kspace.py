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

from .core import GemConfig
from .solver import FieldRecord, _block_rows, _readonly

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

    k_axis is the centered discrete Fourier dual of the z grid, with spacing
    dk = 2*pi/(nz*dz).  Transforms are scaled so that sum |f~|^2 dk equals
    the plain rectangle sum of |f|^2 dz.  The grid and the linear density
    are read from the record.  The view holds no Psi/Phi map: modes(rows)
    makes the rows a reader asks for, and per stored time it keeps only
    the |Psi|^2 row power and the k centroid.
    """

    record: FieldRecord
    k_axis: np.ndarray
    _row_power: np.ndarray  # sum_k |Psi|^2 at each stored time
    _centroid: np.ndarray  # sum(k w) / sum(w), w = |Psi|^2, summed left to right

    @property
    def times(self) -> np.ndarray:
        return self.record.field_times

    def modes(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Psi and Phi at the stored times field_times[rows]; rows is any
        index of the record's rows (a slice, indices, a mask or one index).
        Each row is the same bit for bit whichever rows are taken."""
        record = self.record
        return _modes(record.e_field[rows], record.polarisation[rows], self.k_axis,
                      record.config)


def _weights(rows: np.ndarray) -> np.ndarray:
    """|rows|^2, squared in place in the one |rows| array."""
    w = np.abs(rows)
    return np.square(w, out=w)


def _transform(rows: np.ndarray, dz: float) -> np.ndarray:
    """fftshift(fft(rows)) * dz/sqrt(2*pi) along the last axis; the shift is
    two slice copies."""
    f = np.fft.fft(rows, axis=-1)
    out = np.empty_like(f)
    n = f.shape[-1]
    half = n // 2
    out[..., :half] = f[..., n - half:]
    out[..., half:] = f[..., :n - half]
    out *= dz / np.sqrt(2.0 * np.pi)
    return out


def _modes(e_rows: np.ndarray, a_rows: np.ndarray, k: np.ndarray,
           config: GemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Psi and Phi of E and alpha rows on config's grid: fft, shift, times
    scale, then times k and times N, then the sum and the difference (in
    alpha~'s own array), the operations and order of the whole-array
    transform.  Made from a block of rows it holds at most three blocks:
    E~, alpha~ and the FFT's output, then E~, Psi and Phi."""
    e = _transform(e_rows, config.grid.dz)
    a = _transform(a_rows, config.grid.dz)
    e *= k
    a *= config.linear_density
    psi = np.add(e, a)
    return psi, np.subtract(e, a, out=a)


def _running_total(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum of x along its last axis, accumulated in place."""
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def _k_axis(grid) -> np.ndarray:
    """The centered k axis of the z grid, read-only."""
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(grid.nz, d=grid.dz))
    k.setflags(write=False)
    return k


def _row_values(w: np.ndarray, k: np.ndarray):
    """The |Psi|^2 power of each row of a block of weights w = |Psi|^2
    (_weights of Psi rows, made first so that Psi can go), and its centroid
    sum(k w) / sum(w) over k != 0, summed left to right along k.  Each is
    the same whichever rows share the block."""
    sel = k != 0.0
    w_sel = np.compress(sel, w, axis=-1)
    kw = k[sel] * w_sel
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with no weight
        centroid = _running_total(kw) / _running_total(w_sel)
    return np.sum(w, axis=-1), centroid


def to_kspace(record: FieldRecord) -> KSpaceRecord:
    """Transform the stored field rows of a run to k-space normal modes.

    One pass over blocks of rows (_block_rows(nz) rows each) makes each
    block's Psi by the step of KSpaceRecord.modes and keeps, per row, only
    the |Psi|^2 power and the k centroid (_row_values), summed left to
    right along k, the one value that k_centroid and centroid_series
    report.  A run that streams its rows takes the same two steps on each
    block as it arrives.  A block's step holds at most three blocks, and no
    Psi/Phi map is kept.
    """
    k = _k_axis(record.grid)
    nrows = record.field_times.size
    row_power, centroid = np.empty((2, nrows))
    size = _block_rows(record.grid.nz)
    for lo in range(0, nrows, size):
        rows = slice(lo, lo + size)
        psi = _modes(record.e_field[rows], record.polarisation[rows], k, record.config)[0]
        row_power[rows], centroid[rows] = _row_values(_weights(psi), k)
        del psi  # the next block is made without this one
    _readonly(row_power, centroid)
    return KSpaceRecord(record=record, k_axis=k, _row_power=row_power, _centroid=centroid)


def _lit(row_power: np.ndarray) -> np.ndarray:
    """Rows whose |Psi|^2 weight exceeds the floor relative to the peak row."""
    return row_power > _FLOOR_FRACTION * np.max(row_power)


def _check_floor(row_power: np.ndarray, t_index: int) -> None:
    if not _lit(row_power)[t_index]:
        raise ValueError(
            f"|Psi|^2 at t index {t_index} is below {_FLOOR_FRACTION} of the peak row"
        )


def k_centroid(ks: KSpaceRecord, t_index: int) -> float:
    """Weighted centroid sum(k |Psi|^2) / sum(|Psi|^2), k = 0 bin excluded,
    summed left to right along k: centroid_series' value at t_index."""
    _check_floor(ks._row_power, t_index)
    return float(ks._centroid[t_index])


def centroid_series(ks: KSpaceRecord) -> np.ndarray:
    """k_centroid at every stored time, bit for bit; rows below the floor
    give nan."""
    return _lit_centroids(ks._row_power, ks._centroid)


def _lit_centroids(row_power: np.ndarray, centroid: np.ndarray) -> np.ndarray:
    """centroid_series of per-row powers and centroids."""
    return np.where(_lit(row_power), centroid, np.nan)


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
    before they take the Psi/Phi step of KSpaceRecord.modes (_row_residual,
    which a run that streams its rows takes on the one row it keeps).
    """
    _check_floor(ks._row_power, t_index)
    record = ks.record
    return _row_residual(record.e_field[t_index], record.polarisation[t_index], ks.k_axis,
                         record.config)


def _row_residual(e_row: np.ndarray, a_row: np.ndarray, k: np.ndarray,
                  config: GemConfig) -> float:
    """phi_residual of one E row and one alpha row."""
    taper = _tukey(config.grid.nz, _TAPER_FRACTION)
    psi, phi = _modes(e_row * taper, a_row * taper, k, config)
    sel = k != 0.0
    denom = float(np.linalg.norm(psi[sel]))
    if denom == 0.0:
        raise ValueError("apodized Psi vanishes at this time index")
    return float(np.linalg.norm(phi[sel])) / denom


def polariton_norm(ks: KSpaceRecord, t_index: int) -> float:
    """sum_k |Psi/sqrt(k^2+N^2)|^2 dk: the polariton occupation.

    An invariant of the motion while the slope is frozen (eta = 0), which
    is when the normalized mode is a meaningful excitation number; under a
    nonzero slope the combination is transported but not conserved.
    """
    if np.max(ks._row_power) == 0.0:
        return 0.0
    _check_floor(ks._row_power, t_index)
    grid, linear_density = ks.record.grid, ks.record.config.linear_density
    norm_factor = np.sqrt(ks.k_axis**2 + linear_density**2)
    q = np.abs(ks.modes(t_index)[0] / norm_factor) ** 2
    return float(np.sum(q) * (2.0 * np.pi / (grid.nz * grid.dz)))
