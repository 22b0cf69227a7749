"""Spatial-Fourier diagnostics: normal modes, centroid transport, residuals.

Field/polarisation rows are transformed to k-space (modes), where the
lossless combination Psi(k,t) = k*E(k,t) + N*alpha(k,t) is transported at
dk/dt = -eta(t), while the orthogonal combination
Phi(k,t) = k*E(k,t) - N*alpha(k,t) stays unexcited wherever the interior
field/polarisation relation holds.  A KSpaceRecord keeps only the |Psi|^2
power and the k centroid of each stored row.  Its one row step,
KSpaceRecord.push, takes a row either from a record (to_kspace) or as a
run's march hands it on; the readers of single rows (phi_residual,
polariton_norm) take the rows they read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GemConfig
from .solver import FieldRecord, _readonly

__all__ = [
    "KSpaceRecord",
    "to_kspace",
    "modes",
    "k_centroid",
    "phi_residual",
    "polariton_norm",
    "centroid_series",
]

_FLOOR_FRACTION = 1e-12  # minimum |Psi|^2 weight relative to the peak row
_TAPER_FRACTION = 0.10  # Tukey alpha: 5% cosine ramp on each z edge


@dataclass(frozen=True)
class KSpaceRecord:
    """k-space view of a run's field rows at the stored times `times`.

    k_axis is the centered discrete Fourier dual of the z grid, with spacing
    dk = 2*pi/(nz*dz).  Transforms are scaled so that sum |f~|^2 dk equals
    the plain rectangle sum of |f|^2 dz.  The grid and the linear density
    are read from config.  The view holds no field row and no Psi/Phi map:
    per stored time it keeps only the |Psi|^2 row power and the k centroid,
    which push fills a row at a time; the readers that need rows
    (phi_residual, polariton_norm, modes) take the rows they read.
    """

    config: GemConfig
    times: np.ndarray
    k_axis: np.ndarray
    _row_power: np.ndarray  # sum_k |Psi|^2 at each stored time
    _centroid: np.ndarray  # sum(k w) / sum(w), w = |Psi|^2, summed left to right

    @classmethod
    def empty(cls, config: GemConfig, times: np.ndarray) -> KSpaceRecord:
        """A view at the stored times `times` whose row values push fills
        (nan until then)."""
        row_power, centroid = np.full((2, times.size), np.nan)
        return cls(config, times, _k_axis(config.grid), row_power, centroid)

    def push(self, j: int, e: np.ndarray, a: np.ndarray, write=None) -> None:
        """The row step: Psi and Phi of the E and alpha rows at times[j],
        handed to write(psi, phi) when given (the .npy maps), then |Psi|^2
        squared in place in one |Psi| row once Psi and Phi are gone, and
        from it the row's power and its centroid over k != 0, summed left
        to right along k.  At most E~, alpha~ and Psi are alive together,
        and the values are those of the whole-array expressions, bit for
        bit."""
        psi, phi = modes(e, a, self.config)
        if write is not None:
            write(psi, phi)
        w = np.abs(psi)
        del psi, phi  # Psi and Phi go before the row values are made
        np.square(w, out=w)
        k = self.k_axis
        sel = k != 0.0
        w_sel = w[sel]
        kw = k[sel] * w_sel
        with np.errstate(divide="ignore", invalid="ignore"):  # a row with no weight
            self._centroid[j] = _running_total(kw) / _running_total(w_sel)
        self._row_power[j] = np.sum(w)


def _transform(rows: np.ndarray, dz: float) -> np.ndarray:
    """fftshift(fft(rows)) * dz/sqrt(2*pi) along the last axis, scaled in
    the shifted copy."""
    out = np.fft.fftshift(np.fft.fft(rows, axis=-1), axes=-1)
    return np.multiply(out, dz / np.sqrt(2.0 * np.pi), out=out)


def modes(e_rows: np.ndarray, a_rows: np.ndarray,
          config: GemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Psi and Phi of E and alpha rows (one row or a stack of rows) on
    config's grid: fft, shift, times scale, then times k and times N, then
    the sum and the difference (in alpha~'s own array), the operations and
    order of the whole-array transform, so each row is the same bit for bit
    whichever rows are taken.  Made from one row it holds at most three
    rows: E~, alpha~ and the FFT's output, then E~, alpha~ and Psi."""
    e = _transform(e_rows, config.grid.dz)
    a = _transform(a_rows, config.grid.dz)
    e *= _k_axis(config.grid)
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


def to_kspace(record: FieldRecord) -> KSpaceRecord:
    """Transform the stored field rows of a run to k-space normal modes.

    The record's rows go through KSpaceRecord.push one at a time, as a run
    that streams its rows hands each row of its march to push; per row the
    view keeps only the |Psi|^2 power and the one k centroid that
    k_centroid and centroid_series report.  No Psi/Phi map is kept.
    ValueError for a record that stores no rows (a run without a
    field_stride).
    """
    if record.field_times.size == 0:
        raise ValueError("the record stores no field rows: run it with a field_stride")
    ks = KSpaceRecord.empty(record.config, record.field_times)
    for j, (e, a) in enumerate(zip(record.e_field, record.polarisation)):
        ks.push(j, e, a)
    _readonly(ks._row_power, ks._centroid)
    return ks


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
    return np.where(_lit(ks._row_power), ks._centroid, np.nan)


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


def phi_residual(ks: KSpaceRecord, t_index: int, e_row: np.ndarray,
                 a_row: np.ndarray) -> float:
    """||Phi|| / ||Psi|| of the E and alpha rows at the stored time
    t_index, boundary-apodized, k=0 excluded.

    The input/output field at the medium faces breaks periodicity and
    pollutes the raw transforms, so both rows are multiplied by a cosine
    taper (5% of the span on each edge, the numpy Tukey window _tukey)
    before they take the Psi/Phi step of modes.  The row must be above
    the |Psi|^2 floor of the view.
    """
    _check_floor(ks._row_power, t_index)
    taper = _tukey(ks.config.grid.nz, _TAPER_FRACTION)
    psi, phi = modes(e_row * taper, a_row * taper, ks.config)
    sel = ks.k_axis != 0.0
    denom = float(np.linalg.norm(psi[sel]))
    if denom == 0.0:
        raise ValueError("apodized Psi vanishes at this time index")
    return float(np.linalg.norm(phi[sel])) / denom


def polariton_norm(ks: KSpaceRecord, t_index: int, e_row: np.ndarray,
                   a_row: np.ndarray) -> float:
    """sum_k |Psi/sqrt(k^2+N^2)|^2 dk of the E and alpha rows at the stored
    time t_index: the polariton occupation.

    An invariant of the motion while the slope is frozen (eta = 0), which
    is when the normalized mode is a meaningful excitation number; under a
    nonzero slope the combination is transported but not conserved.
    """
    if np.max(ks._row_power) == 0.0:
        return 0.0
    _check_floor(ks._row_power, t_index)
    grid, linear_density = ks.config.grid, ks.config.linear_density
    norm_factor = np.sqrt(ks.k_axis**2 + linear_density**2)
    q = np.abs(modes(e_row, a_row, ks.config)[0] / norm_factor) ** 2
    return float(np.sum(q) * (2.0 * np.pi / (grid.nz * grid.dz)))
