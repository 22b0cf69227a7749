"""Time integrator for the two-level gradient-echo medium.

The coupled equations (co-moving frame)

    d alpha/dt = -(gamma/2 + i*(eta(t)*z - delta)) * alpha + i*g*E
    dE/dz      =  i * N * alpha,   E(z_min, t) = E_in(t)

are advanced with an exponential midpoint step: the stiff local phase
rotation (and decay) is applied through its exact per-step integral, the
i*g*E source is integrated with oscillation-aware (Filon) weights, and the
field is rebuilt each half step by a cumulative Simpson quadrature in z.
One predictor/corrector pass makes the midpoint field self-consistent.

The rotations and Filon weights come from a closed form: the phase is
affine in z, so exp(x) - 1 over the grid is an outer product of two
vectors of about sqrt(nz) values (`_operator_builder`).  They are built
into one buffer, allocated once, on each step whose Stark integrals differ
from the previous step's: on the plateaus of abrupt and frozen schedules
the integrals are bit-equal, so a run of equal steps is built once, while a
ramp builds every step.

The time loop (`_march`) is shared with the EIT solver in `eit.py` and
holds the whole predictor/corrector pass; each solver hands it two calls
per step, begin (the source-free half step and the source weight, whole
and halved for the corrector) and finish (the state update to the end of
the step).  A step skips the add of an input sample that is exactly zero
(on most steps of a windowed pulse), and the corrector's factor 0.5 is
folded into its weight once per build; neither changes a value (the
tests hold the records to the untrimmed pass byte for byte).  The loop
hands each field row it is asked for on as soon as it makes it, to one
consumer: the record's row arrays, or a caller's consumer that writes maps
or reduces the rows as they arrive, so a run that streams its rows holds
no copy of them, let alone their history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import GemConfig, Grid, PulseSpec

__all__ = ["FieldRecord", "NonFiniteFieldError", "run_gem", "cumulative_simpson"]


class NonFiniteFieldError(RuntimeError):
    """Non-finite field or polarisation values appeared during a run."""

    def __init__(self, time_index: int, time: float):
        self.time_index = time_index
        self.time = time
        super().__init__(
            f"non-finite values at time index {time_index} (t = {time:.6g} us)"
        )


# weights of the opening (closing) parabola on the first (last) three samples
_END_WEIGHTS = (-3.0 / 12.0, 4.0 / 12.0, -1.0 / 12.0)


def cumulative_simpson(f: np.ndarray, dx, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cumulative integral of a 1-D array (uniform spacing, n >= 3).

    Each sub-interval increment comes from quadratic interpolation; interior
    increments average the two bracketing parabola estimates, giving a
    [-1, 13, 13, -1]/24 stencil; one-sided parabolas close the ends.  With
    pair sums p_i = f_i + f_{i+1} and P = cumsum(p) the stencil sums to

        cum[k] = dx/24 * (12*P[k-1] + f[k-1] - f[k+1]),   1 <= k <= n-2,

    once the opening parabola is folded into p_0 and the closing one into
    p_{n-2}, so a single cumulative sum does the work.  dx may be complex
    (a coupling constant folded into the spacing); the result is written
    into `out` when one is given.  np.add.accumulate is the loop of
    ndarray.cumsum without the method's dispatch (about 1.5 us a call).
    """
    if f.ndim != 1:
        raise ValueError(f"f must be 1-D, got shape {f.shape}")
    if out is None:
        out = np.empty(f.shape, dtype=np.result_type(f, dx))
    elif out.shape != f.shape:
        raise ValueError(f"out has shape {out.shape}, expected {f.shape}")
    q = out[1:]
    np.add(f[:-1], f[1:], out=q)
    w0, w1, w2 = _END_WEIGHTS
    a0, a1, a2 = f[:3].tolist()
    b2, b1, b0 = f[-3:].tolist()
    q[0] = q.item(0) + (a0 * w0 + a1 * w1 + a2 * w2)
    q[-1] = q.item(-1) + (b0 * w0 + b1 * w1 + b2 * w2)
    np.add.accumulate(q, out=q)
    q *= 12.0
    q[:-1] += f[:-2]
    q[:-1] -= f[2:]
    q *= dx / 24.0
    out[0] = 0.0
    return out


@dataclass(frozen=True)
class FieldRecord:
    """Space-time history of a run.

    input_series/output_series/alpha_norm_series are kept at every step;
    e_field and polarisation hold one row per time in field_times, the
    steps the run was asked to store (possibly none; none when its rows
    went to a consumer instead, see run_gem).
    The discrete Maxwell relation E(z,t) = input_series(t) + i*N*cumint(alpha)
    holds row by row.  config is the run's configuration, the one place its
    parameters are read from; grid is config.grid.
    """

    times: np.ndarray
    input_series: np.ndarray
    output_series: np.ndarray
    alpha_norm_series: np.ndarray
    field_times: np.ndarray
    e_field: np.ndarray
    polarisation: np.ndarray
    config: GemConfig

    @property
    def grid(self) -> Grid:
        return self.config.grid


def _operator_builder(z0: float, dz: float, nz: int, dt: float, gamma: float, g: float):
    """Closed-form step operators on the uniform z grid.

    Over a step the local phase theta_k = z0*I - D + k*dz*I is affine in the
    site index k (I and D are the step's slope and offset integrals).  Split
    k into block centres k* + a*m, m = ceil(sqrt(nz)), plus fine offsets
    |b| <= m/2, where k* is the site nearest theta = 0 (clamped to the grid).
    With x = -i*theta - damp = x_a + x_b,

        exp(x) - 1 = exp(x_a)*expm1(x_b) + expm1(x_a),

    so one expm1 over about 2*sqrt(nz) values and a small matrix product
    give the whole vector.  Centring on k* keeps |x_a| + |x_b| within a few
    |x| at every site, so no digits cancel next to theta = 0.  The rotation
    is that value plus one; the Filon weight span*(exp(x) - 1)/x divides in
    real arithmetic, 1/x = conj(x)/(theta^2 + damp^2), with theta = theta_a
    + theta_b one broadcast sum of the same terms (1/x = i/theta when
    damp = 0).
    Sites with |x| < 1e-8 take the series 1 + x/2 + x^2/6; they lie within
    1e-8/|dz*I| sites of theta = 0, so one array test over that span of the
    padded flat positions (all of them when the slope is 0) finds them.

    Returns build(key, out): key is one row (I_half, D_half, I_full, D_full)
    of the per-step integrals; out (4, nz) receives the half- and full-step
    rotations, then their Filon weights times i*g.
    """
    m = math.isqrt(nz - 1) + 1
    h = m // 2
    blocks = -(-nz // m) + 1
    sites = np.concatenate((np.arange(blocks) * float(m), np.arange(m) - float(h)))
    damp = np.array([[0.25], [0.5]]) * gamma * dt
    with np.errstate(over="ignore"):  # inf past the float range: its weight is 0
        damp_sq = np.square(damp)
    scale = -g * dt * np.array([[0.5], [1.0]])  # -g*span
    damp_of = damp.ravel().tolist()
    exact_zero_rows = [r for r in (0, 1) if damp_of[r] < 1e-8]  # where |x| < 1e-8 can occur
    theta_ab = np.empty((2, sites.size))
    x = np.zeros((2, sites.size), dtype=complex)
    x.real[:, :blocks] = -damp
    # exp(x) - 1 = [exp(x_a), expm1(x_a)] @ [expm1(x_b), 1] as a real
    # matrix product; a complex factor on the left is an (re, im) pair, so
    # the right-hand rows for it are (e, i*e) and (1, i).  A broadcast
    # complex product would round differently; theta = theta_a + theta_b
    # rounds once either way, so it is a broadcast sum (whose -0 + -0 keeps
    # a sign the product drops, and no weight carries)
    left = np.empty((2, blocks, 2), dtype=complex)
    right = np.zeros((2, 4, m), dtype=complex)
    right[:, 2] = 1.0
    right[:, 3] = 1j
    em1_ab = np.empty((2, blocks, m), dtype=complex)
    theta_sum = np.empty((2, blocks, m))
    left_re, right_re, em1_re = left.view(float), right.view(float), em1_ab.view(float)
    em1, theta = em1_ab.reshape(2, -1), theta_sum.reshape(2, -1)
    inv = np.empty_like(theta)
    conj = np.zeros_like(em1)

    def build(key, out):
        rows, starts, spans = [], [], []
        for slope, offset in ((key[0], key[1]), (key[2], key[3])):
            th0, step = z0 * slope - offset, dz * slope
            zero = 0.0 if step == 0.0 else -th0 / step  # the site of theta = 0
            k = int(min(nz - 1.0, max(0.0, zero)) + 0.5)
            start = m - (k - h) % m  # flat position of site 0
            # theta's step, and theta at the centre of block 0
            rows.append((step, th0 + step * (h - start)))
            starts.append(start)
            # the padded flat positions (site k at start + k) where |theta| <
            # 1e-8 can hold, with one site of margin on each side for rounding
            half = 1e-8 / abs(step) + 1.0 if step else math.inf
            spans.append((math.floor(min(blocks * m, max(0.0, start + zero - half))),
                          math.ceil(min(blocks * m, max(0.0, start + zero + half + 1.0)))))
        coef = np.array(rows)
        np.multiply(coef[:, :1], sites, out=theta_ab)
        theta_ab[:, :blocks] += coef[:, 1:]
        np.negative(theta_ab, out=x.imag)
        e = np.expm1(x)
        left[:, :, 1] = e[:, :blocks]
        np.add(e[:, :blocks], 1.0, out=left[:, :, 0])
        right[:, 0] = e[:, blocks:]
        np.multiply(e[:, blocks:], 1j, out=right[:, 1])
        np.matmul(left_re, right_re, out=em1_re)
        np.add(theta_ab[:, :blocks, None], theta_ab[:, None, blocks:], out=theta_sum)
        series = []
        for r in exact_zero_rows:
            (lo, hi), d = spans[r], damp_of[r]
            near = theta[r, lo:hi]
            small = (np.hypot(near, d) < 1e-8).nonzero()[0]
            if small.size:
                xs = near[small] * -1j - d
                near[small] = 1.0  # keeps the division below finite
                site = small + (lo - starts[r])
                inside = (site >= 0) & (site < nz)
                series.append((r, site[inside], xs[inside]))
        if gamma:
            np.square(theta, out=inv)
            np.add(inv, damp_sq, out=inv)
            np.divide(scale, inv, out=inv)
            np.multiply(theta, inv, out=conj.real)
            np.multiply(inv, damp, out=conj.imag)
        else:
            np.divide(scale, theta, out=conj.real)  # 1/x = i/theta
        for r, s in enumerate(starts):
            np.add(em1[r, s:s + nz], 1.0, out=out[r])
            np.multiply(em1[r, s:s + nz], conj[r, s:s + nz], out=out[2 + r])
        for r, site, xs in series:
            out[2 + r, site] = -1j * scale[r, 0] * (1.0 + xs / 2.0 + xs * xs / 6.0)
        return out

    return build


def _snapshot_rows(nt: int, field_stride: Optional[int]) -> np.ndarray:
    """The time indices a run hands on: every field_stride-th step and the
    last (none for None), the stride clamped to nt so that np.arange gets an
    integer step however large it is.  ValueError unless field_stride is
    None or a positive integer (not a bool)."""
    if field_stride is None:
        return np.zeros(0, dtype=np.intp)
    if (isinstance(field_stride, bool) or not isinstance(field_stride, (int, np.integer))
            or field_stride < 1):
        raise ValueError(f"field_stride must be a positive integer or None, got {field_stride!r}")
    keep = np.arange(0, nt, min(field_stride, nt))
    if keep[-1] != nt - 1:
        keep = np.append(keep, nt - 1)
    return keep


def _readonly(*arrays):
    for arr in arrays:
        arr.setflags(write=False)


def _march(begin, finish, ein, ein_mid, coupling, dz, times, keep, state, consume):
    """Exponential-midpoint time loop shared by the GEM and EIT solvers.

    state holds the solver's per-site arrays, which finish advances in
    place; state[0] radiates the field E = ein + coupling * cumint(state[0]).
    begin(n) returns (rot, w, w_corr): the source-free half-step value of
    state[0], the half-step source weight (per-site array or scalar) and
    that weight times 0.5.  The midpoint coherence is w*E + rot
    (predictor), then w_corr*(E + e_mid) + rot (corrector), which is
    0.5*w*(E + e_mid) + rot bit for bit, 0.5 being a power of two;
    finish(n, src) takes the corrected midpoint field and may overwrite
    it.  An input sample that is exactly zero is not added: adding it
    changes no value, only a -0.0 entry's sign.  Each field rebuild is one
    call of the module-global cumulative_simpson(f, dx, out=...), three per
    step, into buffers allocated once.  Returns the output E(z_max, t) and the norm
    dz*sum|state[-1]|^2 (one einsum pass over its real view, no BLAS call).

    The (E, *state) rows at the time indices `keep` (any strictly
    increasing subset of range(nt), with or without step 0, possibly
    empty) go to consume(j, e, *state_rows) one at a time, as soon as the
    step makes them: j is the row's place in keep, and the rows are
    read-only views of the live arrays, made once, which the next step
    overwrites, so a consumer copies what it keeps.  The loop holds no row
    buffer, whatever the number of rows.  Raises NonFiniteFieldError at the
    first step where the output or the norm is not finite (the rows already
    handed on stay handed on).
    """
    nt = times.size
    E = np.full(state[0].size, ein[0], dtype=complex)
    e_mid = np.empty_like(E)
    src = np.empty_like(E)
    step = coupling * dz
    out = np.empty(nt, dtype=complex)
    norm = np.empty(nt)
    out[0] = E[-1]
    v = state[-1].view(float)
    norm[0] = float(np.einsum("i,i->", v, v)) * dz
    rows = [f.view() for f in (E, *state)]
    _readonly(*rows)
    # keep is walked in order: row j is handed on at time index next_row
    # (nt once every row is handed on)
    pending = enumerate(map(int, keep))
    j, next_row = next(pending, (-1, nt))
    if next_row == 0:
        consume(j, *rows)
        j, next_row = next(pending, (-1, nt))

    for n in range(nt - 1):
        rot, w, w_corr = begin(n)
        np.multiply(w, E, out=src)
        src += rot
        cumulative_simpson(src, step, out=e_mid)
        a = ein_mid[n]
        if a:
            e_mid += a
        np.add(E, e_mid, out=src)
        np.multiply(w_corr, src, out=src)
        src += rot
        cumulative_simpson(src, step, out=e_mid)
        if a:
            e_mid += a
        finish(n, e_mid)
        cumulative_simpson(state[0], step, out=E)
        a = ein[n + 1]
        if a:
            E += a

        e_out = E.item(-1)
        a_norm = float(np.einsum("i,i->", v, v)) * dz
        out[n + 1] = e_out
        norm[n + 1] = a_norm
        if not (math.isfinite(a_norm) and math.isfinite(e_out.real)
                and math.isfinite(e_out.imag)):
            raise NonFiniteFieldError(n + 1, times[n + 1])
        if n + 1 == next_row:
            consume(j, *rows)
            j, next_row = next(pending, (-1, nt))
    return out, norm


def _field_rows(times, keep, nz: int, count: int, consume):
    """The field times and the count field-row arrays of a record, and the
    consumer its march hands the rows at keep to.  With consume None the
    record stores those rows, (len(keep), nz) arrays filled a row at a
    time; otherwise the rows go to consume and the record stores none."""
    if consume is not None:
        return times[:0], [np.empty((0, nz), dtype=complex) for _ in range(count)], consume
    arrays = [np.empty((len(keep), nz), dtype=complex) for _ in range(count)]

    def fill(j, *rows):
        for arr, row in zip(arrays, rows):
            arr[j] = row

    return times[keep], arrays, fill


def run_gem(
    config: GemConfig,
    pulse: PulseSpec,
    *,
    field_stride: Optional[int] = None,
    carrier: float = 0.0,
    consume=None,
) -> FieldRecord:
    """Integrate the medium response to `pulse` and return its record.

    field_stride: the run hands on the field and polarisation rows of
    every field_stride-th step and of the last step, or none (None).

    consume: None, and the record stores those rows; or a callable
    consume(j, e, alpha) that takes them instead, one row at a time as
    the run makes them (see _march: j is the stored-row index, e and alpha
    are read-only rows the next step overwrites), and the record stores
    none.  Either way the rows are the same bit for bit.

    carrier: optional demodulation frequency (rad/us).  The run is done in
    the gauge alpha -> alpha*exp(-i*Phi(t)), Phi(t) = (carrier/eta0) *
    int_0^t eta, which turns a plane-wave input at `carrier` into a DC
    envelope while keeping the physical medium window; recorded series and
    each field row are transformed back (the rows into one scratch pair)
    before they are stored or handed on, so the record and the rows are
    gauge-free.  Exact for any slope schedule.
    """
    grid = config.grid
    stark = config.stark
    nt, nz = grid.nt, grid.nz
    dz, dt = grid.dz, grid.dt
    t = grid.t_axis
    g, dens, gamma = config.g, config.linear_density, config.gamma
    keep = _snapshot_rows(nt, field_stride)
    field_times, (e_rows, a_rows), consume = _field_rows(t, keep, nz, 2, consume)

    # per-step slope and offset integrals over the half and the full step
    integrals = np.fromiter(
        ((stark.slope_integral(a, 0.5 * dt), stark.offset_integral(a, 0.5 * dt),
          stark.slope_integral(a, dt), stark.offset_integral(a, dt))
         for a in t[:-1].tolist()),
        dtype=np.dtype((float, 4)), count=nt - 1)
    i_half, _, i_full, _ = integrals.T

    # gauge phase at sample and midpoint times
    s = carrier / stark.eta0
    phi = np.zeros(nt)
    if carrier != 0.0:
        np.cumsum(s * i_full, out=phi[1:])
    phi_mid = phi[:-1] + s * i_half

    ein_true = pulse.evaluate(t)
    ein = ein_true * np.exp(-1j * phi)
    ein_mid = pulse.evaluate(t[:-1] + 0.5 * dt) * np.exp(-1j * phi_mid)

    build = _operator_builder(grid.z_min + s, dz, nz, dt, gamma, g)
    # a step whose integrals equal the previous step's reuses its operators
    fresh = [True, *np.any(integrals[1:] != integrals[:-1], axis=1).tolist()]
    ops = np.empty((4, nz), dtype=complex)
    rot_half, rot_full, w_half, w_full = ops
    alpha, rot_alpha, w_corr = np.zeros((3, nz), dtype=complex)

    # exact phase rotation (and decay) over the half and full step, Filon
    # weights (times i*g) for the i*g*E source, and the half-step weight
    # halved for the corrector
    def begin(n):
        if fresh[n]:
            build(integrals[n].tolist(), ops)
            np.multiply(w_half, 0.5, out=w_corr)
        return np.multiply(rot_half, alpha, out=rot_alpha), w_half, w_corr

    def finish(n, src):
        np.multiply(rot_full, alpha, out=alpha)
        np.add(alpha, np.multiply(w_full, src, out=src), out=alpha)

    hand_on = consume
    if carrier != 0.0:
        gauge_rows = np.exp(1j * phi[keep])
        gauged = np.empty((2, nz), dtype=complex)
        gauged_rows = gauged.view()
        _readonly(gauged_rows)

        def hand_on(j, *rows):
            for row, buf in zip(rows, gauged):
                np.multiply(row, gauge_rows[j], out=buf)
            consume(j, *gauged_rows)

    out, anorm = _march(begin, finish, ein, ein_mid, 1j * dens, dz, t, keep, (alpha,), hand_on)

    if carrier != 0.0:
        out = out * np.exp(1j * phi)

    _readonly(out, anorm, e_rows, a_rows, ein_true)
    return FieldRecord(
        times=t,
        input_series=ein_true,
        output_series=out,
        alpha_norm_series=anorm,
        field_times=field_times,
        e_field=e_rows,
        polarisation=a_rows,
        config=config,
    )
