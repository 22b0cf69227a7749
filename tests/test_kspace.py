import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal.windows import tukey

from gemsim import GemConfig, Grid, StarkProfile, run_gem, to_kspace
from gemsim.experiments import _ArtifactWriter
from gemsim.kspace import (KSpaceRecord, _tukey, centroid_series, k_centroid, modes,
                           phi_residual, polariton_norm)
from gemsim.solver import FieldRecord

from conftest import small_config, small_pulse


def synthetic_record(e_rows, a_rows, grid, dens=2.0):
    nt = grid.nt
    t = grid.t_axis
    return FieldRecord(
        times=t,
        input_series=np.zeros(nt, complex),
        output_series=np.zeros(nt, complex),
        alpha_norm_series=np.zeros(nt),
        field_times=t[: e_rows.shape[0]],
        e_field=e_rows,
        polarisation=a_rows,
        config=GemConfig(g=1.0, linear_density=dens, gamma=0.0,
                         stark=StarkProfile(eta0=1.0, switch_time=grid.t_max / 2), grid=grid),
    )


@pytest.fixture(scope="module")
def stored_run():
    cfg = small_config(beta=1.0)
    return run_gem(cfg, small_pulse(), field_stride=20)


@pytest.fixture(scope="module")
def stored_ks(stored_run):
    return to_kspace(stored_run)


class TestToKspace:
    def test_dc_polarisation(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=64, t_max=1.0, nt=4)
        a = np.ones((1, 64), complex)
        e = np.zeros((1, 64), complex)
        rec = synthetic_record(e, a, grid, dens=2.0)
        ks = to_kspace(rec)
        i0 = np.argmin(np.abs(ks.k_axis))
        assert ks.k_axis[i0] == 0.0
        psi, phi = modes(rec.e_field[0], rec.polarisation[0], rec.config)
        a_t = psi[i0] / 2.0
        assert psi[i0] == pytest.approx(2.0 * a_t)
        assert phi[i0] == pytest.approx(-2.0 * a_t)
        # off-DC bins are empty
        mask = np.arange(64) != i0
        assert np.max(np.abs(psi[mask])) < 1e-10 * np.abs(psi[i0])

    @pytest.mark.parametrize("z_min, z_max, nz", [(-3.0, 3.0, 10240), (10.0, 16.0, 4096)])
    def test_accepts_a_linspace_axis_whose_steps_round_away_from_dz(self, z_min, z_max, nz):
        # the z axis is a linspace, uniform by construction, though its
        # differences stray from dz by more than 1e-12 relative on these grids
        grid = Grid(z_min=z_min, z_max=z_max, nz=nz, t_max=1.0, nt=4)
        assert not np.allclose(np.diff(grid.z_axis), grid.dz, rtol=1e-12, atol=0.0)
        a = np.ones((1, nz), complex)
        rec = synthetic_record(np.zeros_like(a), a, grid, dens=2.0)
        ks = to_kspace(rec)
        i0 = np.argmin(np.abs(ks.k_axis))
        psi = modes(rec.e_field[0], rec.polarisation[0], rec.config)[0]
        assert psi[i0] == pytest.approx(2.0 * nz * grid.dz / np.sqrt(2.0 * np.pi))

    def test_parseval(self, stored_run, stored_ks):
        dz = stored_run.grid.dz
        for i in (3, 20, 40):
            a = stored_run.polarisation[i]
            scale = dz / np.sqrt(2.0 * np.pi)
            a_t = np.fft.fftshift(np.fft.fft(a)) * scale
            lhs = np.sum(np.abs(a_t) ** 2) * (2.0 * np.pi / (stored_run.grid.nz * dz))
            rhs = np.sum(np.abs(a) ** 2) * dz
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_a_record_without_rows_is_rejected(self):
        # a run's default field_stride (None) stores no rows, and a view of
        # none would fail later, in every reader
        record = run_gem(small_config(nt=401), small_pulse())
        assert record.field_times.size == 0
        with pytest.raises(ValueError, match="field_stride"):
            to_kspace(record)

    def test_views_its_record_at_the_stored_times(self, stored_run, stored_ks):
        assert stored_ks.config is stored_run.config
        assert stored_ks.times is stored_run.field_times

    def test_k_axis_is_dual_grid(self, stored_run, stored_ks):
        grid = stored_run.grid
        assert stored_ks.k_axis.size == grid.nz
        assert stored_ks.k_axis[0] < 0 < stored_ks.k_axis[-1]
        np.testing.assert_allclose(np.diff(stored_ks.k_axis), 2.0 * np.pi / (grid.nz * grid.dz),
                                   rtol=1e-9)


def full_array_view(record):
    """Psi, Phi, the row powers, the peak and the centroid series as the
    whole-array expressions that the row build must equal bit for bit."""
    dz, dens = record.grid.dz, record.config.linear_density
    scale = dz / np.sqrt(2.0 * np.pi)
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(record.grid.nz, d=dz))
    e_t = np.fft.fftshift(np.fft.fft(record.e_field, axis=-1), axes=-1) * scale
    a_t = np.fft.fftshift(np.fft.fft(record.polarisation, axis=-1), axes=-1) * scale
    psi = k * e_t + dens * a_t
    phi = k * e_t - dens * a_t
    row_power = np.sum(np.abs(psi) ** 2, axis=-1)
    peak = float(np.max(row_power))
    lit = row_power > 1e-12 * peak
    sel = k != 0.0
    w = np.abs(psi[lit]) ** 2
    # left-to-right sums along k, which np.sum takes over many rows
    # (w[..., sel] is Fortran-ordered) but not over one (pairwise)
    moment = np.cumsum(k[sel] * w[..., sel], axis=-1)[..., -1]
    weight = np.cumsum(w[..., sel], axis=-1)[..., -1]
    if np.count_nonzero(lit) > 1:
        assert_bits(moment, np.sum(k[sel] * w[..., sel], axis=-1))
        assert_bits(weight, np.sum(w[..., sel], axis=-1))
    centroid = np.full(len(psi), np.nan)
    centroid[lit] = moment / weight
    return psi, phi, row_power, peak, centroid


def assert_bits(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.fixture(scope="module", params=[128, 127], ids=["nz128", "nz127"])
def decayed_run(request):
    # gamma = 2 empties the medium: row 0 and rows 703 on fall below the floor
    cfg = small_config(beta=1.0, gamma=2.0, nz=request.param)
    return run_gem(cfg, small_pulse(), field_stride=1)


class TestRowBuild:
    """to_kspace takes the row step one row at a time and keeps per-row
    values; modes makes Psi/Phi of any rows."""

    @pytest.mark.parametrize("n", [1, 2, 64, 128, 259])
    def test_equals_the_full_array_expressions(self, decayed_run, n):
        size = 64  # rows of a stack that modes takes at once
        assert n <= decayed_run.field_times.size
        # rows 350-1000 hold lit and dark rows, shuffled
        rows = np.linspace(350, 1000, n).round().astype(int)
        rows = np.random.default_rng(n).permutation(rows)
        record = replace(decayed_run, field_times=decayed_run.field_times[rows],
                         e_field=decayed_run.e_field[rows],
                         polarisation=decayed_run.polarisation[rows])
        ks = to_kspace(record)
        psi, phi, row_power, peak, centroid = full_array_view(record)
        # every row on demand, a stack of rows, one row and scattered rows
        picks = [slice(None), slice(size // 2, size // 2 + size), n - 1,
                 np.random.default_rng(0).permutation(n)[: (n + 1) // 2]]
        for pick in picks:
            got_psi, got_phi = modes(record.e_field[pick], record.polarisation[pick],
                                     record.config)
            assert_bits(got_psi, psi[pick])
            assert_bits(got_phi, phi[pick])
        assert_bits(ks._row_power, row_power)
        assert np.max(ks._row_power) == peak
        series = centroid_series(ks)
        assert_bits(series, centroid)
        if n > 1:
            assert np.isnan(series).any() and not np.isnan(series).all()
        # one centroid per row: k_centroid reads the series' value
        for i in np.flatnonzero(~np.isnan(series)):
            assert_bits(np.float64(k_centroid(ks, i)), series[i])

    def test_kspace_stage_holds_row_vectors_and_ten_rows(self, tmp_path):
        # the row step writing the two k-space maps, centroid_series and
        # the Phi residual of a kspace_report run, on 40 rows: no Psi/Phi
        # map is held, only values per row and at most ten rows (about six
        # in the row step's transforms, about eight in phi_residual's)
        nz, nrows = 1024, 40
        grid = Grid(z_min=-1.0, z_max=1.0, nz=nz, t_max=1.0, nt=nrows)
        rng = np.random.default_rng(17)
        e, a = (rng.normal(size=(nrows, nz)) + 1j * rng.normal(size=(nrows, nz))
                for _ in range(2))
        record = synthetic_record(e, a, grid)
        writer = _ArtifactWriter(tmp_path)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ks = KSpaceRecord.empty(record.config, record.field_times)
            with writer.npy(("psi_mag.npy", "phi_mag.npy"), ks.times, nz) as push:
                for j in range(nrows):
                    ks.push(j, e[j], a[j], lambda psi, phi: push(j, [psi, phi]))
            centroid_series(ks)
            phi_residual(ks, nrows // 2, e[nrows // 2], a[nrows // 2])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        row_vectors = 8 * nrows * 8
        row = nz * 16
        assert peak <= row_vectors + 10 * row


class TestCentroid:
    def test_symmetric_distribution_has_zero_centroid(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=64, t_max=1.0, nt=4)
        z = grid.z_axis
        a = np.cos(2.0 * np.pi * 5 * z)[None, :].astype(complex)  # +/-k pair
        e = np.zeros_like(a)
        ks = to_kspace(synthetic_record(e, a, grid))
        assert abs(k_centroid(ks, 0)) < 1e-9

    def test_transport_slope_matches_minus_eta(self, stored_run, stored_ks):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the all-zero first row divides nothing
            series = centroid_series(stored_ks)
        assert np.isnan(series[0])
        for i, c in enumerate(series):
            try:
                ref = k_centroid(stored_ks, i)
            except ValueError:
                assert np.isnan(c)
            else:
                assert c == pytest.approx(ref, rel=1e-12)
        t = stored_ks.times
        sel = (t > 8.0) & (t < 13.0)  # storage window
        cen = series[sel]
        slope = np.polyfit(t[sel], cen, 1)[0]
        eta = 4.0
        assert slope == pytest.approx(-eta, rel=0.05)

    def test_centroid_frozen_during_freeze(self):
        cfg = small_config(beta=1.0, freeze=((9.0, 12.0),))
        rec = run_gem(cfg, small_pulse(), field_stride=10)
        ks = to_kspace(rec)
        sel = (ks.times > 9.2) & (ks.times < 11.8)
        cen = centroid_series(ks)[sel]
        assert np.ptp(cen) / abs(np.mean(cen)) < 0.005

    def test_below_floor_rejected(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=64, t_max=1.0, nt=4)
        a = np.vstack([np.ones(64), np.full(64, 1e-9)]).astype(complex)
        e = np.zeros_like(a)
        ks = to_kspace(synthetic_record(e, a, grid))
        with pytest.raises(ValueError):
            k_centroid(ks, 1)


def reference_phi_residual(record, t_index):
    """phi_residual as its own k*E~ +- N*alpha~ expression over the k != 0
    bins of the tapered rows, which the shared Psi/Phi step must equal bit
    for bit."""
    dz, dens = record.grid.dz, record.config.linear_density
    scale = dz / np.sqrt(2.0 * np.pi)
    taper = tukey(record.grid.nz, 0.10)
    k = 2.0 * np.pi * np.fft.fftshift(np.fft.fftfreq(record.grid.nz, d=dz))
    e_t = np.fft.fftshift(np.fft.fft(record.e_field[t_index] * taper)) * scale
    a_t = np.fft.fftshift(np.fft.fft(record.polarisation[t_index] * taper)) * scale
    sel = k != 0.0
    psi = k[sel] * e_t[sel] + dens * a_t[sel]
    phi = k[sel] * e_t[sel] - dens * a_t[sel]
    return float(np.linalg.norm(phi)) / float(np.linalg.norm(psi))


class TestPhiResidual:
    def test_is_the_tapered_rows_own_expression_bit_for_bit(self, decayed_run):
        ks = to_kspace(decayed_run)
        lit = np.flatnonzero(~np.isnan(centroid_series(ks)))
        assert 0 < lit.size < ks.times.size
        for i in lit:
            got = phi_residual(ks, i, decayed_run.e_field[i], decayed_run.polarisation[i])
            assert got.hex() == reference_phi_residual(decayed_run, i).hex()

    def test_exact_relation_gives_zero(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=256, t_max=1.0, nt=4)
        z = grid.z_axis
        dens = 2.0
        # build E from alpha so that k*E~ = N*alpha~ holds exactly in k space
        rng = np.random.default_rng(7)
        spec = np.zeros(256, complex)
        ks_idx = [60, 100, 140, 200]
        k_axis = 2.0 * np.pi * np.fft.fftfreq(256, d=grid.dz)
        for i in ks_idx:
            spec[i] = rng.normal() + 1j * rng.normal()
        a = np.fft.ifft(spec)
        e_spec = np.where(k_axis != 0.0, dens * spec / np.where(k_axis == 0, 1, k_axis), 0.0)
        e = np.fft.ifft(e_spec)
        rec = synthetic_record(e[None, :], a[None, :], grid, dens)
        ks = to_kspace(rec)
        # the raw combination vanishes identically; the production residual
        # carries a small taper floor from the boundary apodization
        psi, phi = modes(rec.e_field[0], rec.polarisation[0], rec.config)
        assert np.linalg.norm(phi) / np.linalg.norm(psi) < 1e-9
        assert phi_residual(ks, 0, rec.e_field[0], rec.polarisation[0]) < 0.05

    def test_pure_field_gives_unity(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=256, t_max=1.0, nt=4)
        z = grid.z_axis
        e = (np.exp(-((z / 0.3) ** 2)) * np.exp(40j * z))[None, :].astype(complex)
        a = np.zeros_like(e)
        ks = to_kspace(synthetic_record(e, a, grid))
        assert phi_residual(ks, 0, e[0], a[0]) == pytest.approx(1.0, abs=1e-12)

    def test_small_during_storage(self, stored_run, stored_ks):
        t = stored_ks.times
        for i in np.nonzero((t > 8.0) & (t < 13.0))[0]:
            e, a = stored_run.e_field[i], stored_run.polarisation[i]
            assert phi_residual(stored_ks, int(i), e, a) < 1e-2


class TestTukey:
    """The numpy taper of phi_residual against scipy's Tukey window."""

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.9])
    def test_equals_scipy_bit_for_bit(self, alpha):
        for n in [*range(1, 301), 4096, 10240]:
            got, ref = _tukey(n, alpha), tukey(n, alpha)
            assert got.dtype == ref.dtype and np.array_equal(got, ref), n


class TestPolaritonNorm:
    def test_zero_for_dark_medium(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=64, t_max=1.0, nt=4)
        dark = np.zeros((1, 64), complex)
        ks = to_kspace(synthetic_record(dark, dark, grid))
        assert polariton_norm(ks, 0, dark[0], dark[0]) == 0.0

    def test_below_floor_row_rejected(self):
        grid = Grid(z_min=-1.0, z_max=1.0, nz=64, t_max=1.0, nt=4)
        a = np.vstack([np.ones(64), np.full(64, 1e-10)]).astype(complex)
        e = np.zeros_like(a)
        ks = to_kspace(synthetic_record(e, a, grid))
        with pytest.raises(ValueError):
            polariton_norm(ks, 1, e[1], a[1])

    def test_constant_during_freeze(self):
        cfg = small_config(beta=1.0, freeze=((9.0, 12.0),))
        rec = run_gem(cfg, small_pulse(), field_stride=10)
        ks = to_kspace(rec)
        sel = np.nonzero((ks.times > 9.2) & (ks.times < 11.8))[0]
        vals = [polariton_norm(ks, int(i), rec.e_field[i], rec.polarisation[i]) for i in sel]
        assert (max(vals) - min(vals)) / max(vals) < 0.01

    def test_decays_with_gamma(self):
        cfg = small_config(beta=1.0, gamma=0.05, freeze=((9.0, 14.0),), switch=16.0)
        rec = run_gem(cfg, small_pulse(), field_stride=10)
        ks = to_kspace(rec)
        sel = np.nonzero((ks.times > 9.2) & (ks.times < 13.8))[0]
        vals = np.array([polariton_norm(ks, int(i), rec.e_field[i], rec.polarisation[i])
                         for i in sel])
        assert np.all(np.diff(vals) < 0.0)


class TestShapeProperties:
    def test_k_cross_section_reproduces_envelope(self, stored_run, stored_ks):
        # |Psi(k_fixed, t)| as a function of t traces the input envelope
        # while the excitation sweeps past k_fixed (storage leg only; the
        # post-switch return sweep crosses the same k a second time)
        eta = 4.0
        k_probe = -eta * 8.0  # passed at t ~ pulse center + 8
        j = int(np.argmin(np.abs(stored_ks.k_axis - k_probe)))
        t = stored_ks.times
        leg = (t > 7.0) & (t < 14.5)  # after the absorption transient
        psi = modes(stored_run.e_field[leg], stored_run.polarisation[leg], stored_run.config)[0]
        series = np.abs(psi[:, j])
        shift = t[leg][np.argmax(series)] - 4.0
        ref = np.abs(small_pulse().evaluate(t[leg] - shift))
        a = series - series.mean()
        b = ref - ref.mean()
        corr = float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))
        assert corr > 0.95
