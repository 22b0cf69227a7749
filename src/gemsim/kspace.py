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
# bytes of one block of complex rows in to_kspace and the .npy map writer (16
# rows at nz = 4096); each block's temporaries are this size, not the record's
_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class KSpaceRecord:
    """k-space view of a run (record) at its stored field times.

    k_axis is the centered discrete Fourier dual of the z grid, with spacing
    dk = 2*pi/(nz*dz).  Transforms are scaled so that sum |f~|^2 dk equals
    the plain rectangle sum of |f|^2 dz.  The grid and the linear density
    are read from the record.  The view holds no Psi/Phi map: modes(rows)
    makes the rows a reader asks for, and per stored time it keeps only
    the |Psi|^2 row power and the k centroid, summed two ways.
    """

    record: FieldRecord
    k_axis: np.ndarray
    _row_power: np.ndarray  # sum_k |Psi|^2 at each stored time
    _series_centroid: np.ndarray  # centroid_series' values, sums left to right
    _row_centroid: np.ndarray  # k_centroid's values, sums pairwise
    _peak: float  # the largest row power

    @property
    def times(self) -> np.ndarray:
        return self.record.field_times

    def modes(self, rows=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Psi and Phi at the stored times field_times[rows]; rows is any
        index of the record's rows (a slice, indices, a mask or one index).
        Each row is the same bit for bit whichever rows are taken."""
        return _modes(self.record, self.k_axis, rows)


def _block_rows(nz: int) -> int:
    """Rows of one complex block of _BLOCK_BYTES on an nz-point grid."""
    return max(1, _BLOCK_BYTES // (16 * nz))


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


def _modes(record: FieldRecord, k: np.ndarray, rows) -> tuple[np.ndarray, np.ndarray]:
    """Psi and Phi of the record's rows: fft, shift, times scale, then times
    k and times N, then the sum and the difference (in alpha~'s own array),
    the operations and order of the whole-array transform.  Made from a
    block of rows it holds at most three blocks: E~, alpha~ and the FFT's
    output, then E~, Psi and Phi."""
    e = _transform(record.e_field[rows], record.grid.dz)
    a = _transform(record.polarisation[rows], record.grid.dz)
    e *= k
    a *= record.config.linear_density
    psi = np.add(e, a)
    return psi, np.subtract(e, a, out=a)


def _running_total(x: np.ndarray) -> np.ndarray:
    """Left-to-right sum of x along its last axis, accumulated in place."""
    return np.add.accumulate(x, axis=-1, out=x)[..., -1]


def _row_values(record: FieldRecord, k: np.ndarray, rows: slice):
    """The |Psi|^2 power of each row of one block, and its centroid
    sum(k w) / sum(w) over k != 0, w = |Psi|^2, summed two ways: left to
    right along k, as np.sum sums the k-selected rows of a many-row array
    (a Fortran-ordered copy), and pairwise, as np.sum sums one row.  Each
    is the same whichever rows share the block."""
    w = _weights(_modes(record, k, rows)[0])
    sel = k != 0.0
    w_sel = np.compress(sel, w, axis=-1)
    kw = k[sel] * w_sel
    with np.errstate(divide="ignore", invalid="ignore"):  # rows with no weight
        pairwise = np.sum(kw, axis=-1) / np.sum(w_sel, axis=-1)
        running = _running_total(kw) / _running_total(w_sel)
    return np.sum(w, axis=-1), running, pairwise


def to_kspace(record: FieldRecord) -> KSpaceRecord:
    """Transform the stored field rows of a run to k-space normal modes.

    One pass over blocks of rows (_BLOCK_BYTES of complex values each)
    makes each block's Psi by the step of KSpaceRecord.modes and keeps, per
    row, only the |Psi|^2 power and the k centroid (summed left to right
    for centroid_series and pairwise for k_centroid, the orders np.sum
    takes over a many-row array and over one row).  A block's step holds
    at most three blocks, and no Psi/Phi map is kept.
    """
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(record.grid.nz, d=record.grid.dz))
    k.setflags(write=False)
    nrows = record.field_times.size
    row_power, series, row_centroid = np.empty((3, nrows))
    size = _block_rows(record.grid.nz)
    for lo in range(0, nrows, size):
        rows = slice(lo, lo + size)
        row_power[rows], series[rows], row_centroid[rows] = _row_values(record, k, rows)
    for arr in (row_power, series, row_centroid):
        arr.setflags(write=False)
    return KSpaceRecord(
        record=record,
        k_axis=k,
        _row_power=row_power,
        _series_centroid=series,
        _row_centroid=row_centroid,
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


def k_centroid(ks: KSpaceRecord, t_index: int) -> float:
    """Weighted centroid sum(k |Psi|^2) / sum(|Psi|^2), k = 0 bin excluded."""
    _check_floor(ks, t_index)
    return float(ks._row_centroid[t_index])


def centroid_series(ks: KSpaceRecord) -> np.ndarray:
    """k_centroid at every stored time (rows below the floor give nan),
    summed left to right along k where k_centroid sums pairwise; the two
    agree to rounding."""
    lit = _lit(ks)
    out = np.full(ks.times.size, np.nan)
    out[lit] = ks._series_centroid[lit]
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
    q = np.abs(ks.modes(t_index)[0] / norm_factor) ** 2
    return float(np.sum(q) * (2.0 * np.pi / (grid.nz * grid.dz)))
