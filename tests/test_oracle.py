"""A continuum frequency-domain oracle for the write stage.

Before the switch the slope is a constant eta, so the medium is linear and
time-invariant.  With the co-moving equations of gemsim.solver and
numpy's transform convention (a time derivative is i*omega),

    alpha(z, w) = i*g*E(z, w) / (gamma/2 + i*(eta*z + w)),
    dE/dz = i*N*alpha = -g*N*E / (gamma/2 + i*(eta*z + w)),

so the cell transmits T(w) = exp(-(g*N/(i*eta)) * [ln(gamma/2 + i*(eta*z_max
+ w)) - ln(gamma/2 + i*(eta*z_min + w))]), the closed form of the
frequency-domain treatment of Hetet, Longdell, Alexander, Lam & Sellars,
PRL 100, 023601 (2008).

After an abrupt switch at t_s the slope is -eta and the input is gone.
The write stage leaves the coherence alpha_s(z) = alpha(z, t_s), and the
one-sided transform of the recall stage, with D(z) = gamma/2 + i*(w -
eta*z), gives

    E(z_max, w) = int i*N*alpha_s(z')/D(z')
                  * exp(-g*N*(i/eta)*[ln D(z_max) - ln D(z')]) dz',

the recall half of that treatment (Longdell, Hetet, Lam & Sellars, PRA 78,
032306 (2008)).
"""

import numpy as np
import pytest

from gemsim import PulseSpec, run_gem

from conftest import small_config

# zero padding of the input, in multiples of its length: with gamma = 0 the
# response decays like 1/t, so the wrap-around of the periodic transform
# falls with the padded length (about 1e-8 of the peak input at 64)
_PAD = 64


# the recall oracle's zero padding, in multiples of the input's length (2x
# floors near 1e-3 of the peak input), and the Simpson points of its z'
# integral; its own floor is about 1e-6 of the peak input
_RECALL_PAD = 4
_RECALL_NZ = 2049


def _log_gamma_plus(half_gamma: float, x: np.ndarray) -> np.ndarray:
    """ln(half_gamma + i*x), at half_gamma = 0 as its limit from above,
    ln|x| + i*(pi/2)*sign(x)."""
    if half_gamma == 0.0:
        return np.log(np.abs(x)) + 0.5j * np.pi * np.sign(x)
    return np.log(half_gamma + 1j * x)


def continuum_write_output(config, e_in: np.ndarray) -> np.ndarray:
    """The continuum output E(z_max, t) of a GemConfig's medium at its grid
    times for the input samples e_in, as if the slope kept its value at
    t = 0 (eta0) for ever: ifft(fft(e_in) * T) on a zero-padded grid with
    omega = 2*pi*fftfreq.  Exact, up to the wrap-around, for an input
    band-limited below the grid's Nyquist frequency."""
    grid = config.grid
    eta, gn = config.stark.eta0, config.g * config.linear_density
    omega = 2.0 * np.pi * np.fft.fftfreq(_PAD * e_in.size, d=grid.dt)
    span = (_log_gamma_plus(0.5 * config.gamma, eta * grid.z_max + omega)
            - _log_gamma_plus(0.5 * config.gamma, eta * grid.z_min + omega))
    transmission = np.exp(-(gn / (1j * eta)) * span)
    spectrum = np.fft.fft(e_in, n=omega.size)
    return np.fft.ifft(spectrum * transmission)[:e_in.size]


def _simpson_weights(n: int, dx: float) -> np.ndarray:
    """Simpson's rule on n (odd) uniform points: dx/3 * [1, 4, 2, ..., 4, 1]."""
    w = np.full(n, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return w * (dx / 3.0)


def continuum_recall_output(config, e_in: np.ndarray) -> np.ndarray:
    """The continuum output E(z_max, t) of a GemConfig's medium with an
    abrupt switch at t_s = switch_time, a time on its grid, for the input
    samples e_in, which must be gone by t_s: the recall series at the grid
    times from t_s on, NaN before.  gamma > 0, since at gamma = 0 ln D
    meets zero at exact resonances.

    alpha_s(z) is the inverse transform at t_s of the write stage's
    alpha(z, w) = i*g*E_in(w)*T_z(w)/(gamma/2 + i*(eta*z + w)), T_z the
    transmission up to z, on a zero-padded grid with w = 2*pi*fftfreq;
    the recall spectrum's z' integral (module docstring) is taken by
    Simpson's rule on _RECALL_NZ points, and the series at t_s + k*dt is
    ifft(E(z_max, w))/dt."""
    grid = config.grid
    eta, g, dens = config.stark.eta0, config.g, config.linear_density
    half_gamma, gn = 0.5 * config.gamma, g * dens
    n_s = round(config.stark.switch_time / grid.dt)
    assert half_gamma > 0.0 and grid.t_axis[n_s] == config.stark.switch_time
    omega = 2.0 * np.pi * np.fft.fftfreq(_RECALL_PAD * e_in.size, d=grid.dt)
    spectrum = np.fft.fft(e_in, n=omega.size)
    at_switch = np.exp(1j * omega * (n_s * grid.dt)) / omega.size  # ifft's row at t_s
    z = np.linspace(grid.z_min, grid.z_max, _RECALL_NZ)
    log_min = np.log(half_gamma + 1j * (eta * grid.z_min + omega))
    alpha_s = np.empty(z.size, dtype=complex)
    for lo in range(0, z.size, 32):  # 32 z rows at a time
        d = half_gamma + 1j * (eta * z[lo:lo + 32, None] + omega)
        alpha = 1j * g * spectrum * np.exp(-(gn / (1j * eta)) * (np.log(d) - log_min)) / d
        alpha_s[lo:lo + 32] = alpha @ at_switch
    weights = _simpson_weights(z.size, z[1] - z[0])
    recall = np.empty(omega.size, dtype=complex)
    for lo in range(0, omega.size, 128):  # 128 frequencies at a time
        d = half_gamma + 1j * (omega[lo:lo + 128] - eta * z[:, None])
        log_d = np.log(d)
        terms = 1j * dens * alpha_s[:, None] / d * np.exp(-gn * (1j / eta) * (log_d[-1] - log_d))
        recall[lo:lo + 128] = weights @ terms
    out = np.full(grid.nt, np.nan, dtype=complex)
    out[n_s:] = (np.fft.ifft(recall) / grid.dt)[:grid.nt - n_s]
    return out


@pytest.mark.parametrize("gamma", [0.0, 0.3])
def test_the_write_stage_converges_to_the_continuum_at_second_order(gamma):
    # a 2 mm cell at beta = 0.25 and a Gaussian at 10 us, compared before
    # the switch at 30 us; dt and dz halve together.  Measured errors over
    # the peak input: 1.07e-4, 2.67e-5, 6.65e-6 (gamma = 0) and 1.09e-4,
    # 2.72e-5, 6.79e-6 (gamma = 0.3)
    pulse = PulseSpec(kind="gaussian", center=10.0, width=1.5)
    errors = []
    for nt, nz in ((801, 128), (1601, 256), (3201, 512)):
        config = small_config(beta=0.25, switch=30.0, gamma=gamma, nt=nt, nz=nz)
        record = run_gem(config, pulse)
        before = record.times < 28.0
        oracle = continuum_write_output(config, record.input_series)
        error = np.max(np.abs(record.output_series[before] - oracle[before]))
        errors.append(error / np.max(np.abs(record.input_series)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all((orders > 1.9) & (orders < 2.1)), (errors, orders)
    assert errors[-1] < 1e-5, errors


@pytest.mark.parametrize("gamma", [0.1, 0.3])
def test_the_recall_stage_converges_to_the_continuum(gamma):
    # beta = 0.5, a Gaussian at 8 us and an abrupt switch at 14 us, which
    # lies on every grid, compared from 16 us on; dt and dz halve together.
    # The oracle is made once, on the finest grid, and read at each grid's
    # times.  Measured errors over the peak input: 7.43e-5, 9.52e-6,
    # 2.09e-6 (gamma = 0.1) and 2.34e-5, 4.04e-6, 9.40e-7 (gamma = 0.3)
    pulse = PulseSpec(kind="gaussian", center=8.0, width=1.5)
    records = [run_gem(small_config(beta=0.5, switch=14.0, t_max=32.0, gamma=gamma,
                                    nt=nt, nz=nz), pulse)
               for nt, nz in ((801, 128), (1601, 256), (3201, 512))]
    finest = records[-1]
    oracle = continuum_recall_output(finest.config, finest.input_series)
    errors = []
    for record in records:
        stride = (finest.times.size - 1) // (record.times.size - 1)
        later = record.times >= 16.0
        error = np.max(np.abs(record.output_series[later] - oracle[::stride][later]))
        errors.append(error / np.max(np.abs(record.input_series)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 1.9), (errors, orders)
    assert errors[-1] < 5e-6, errors
