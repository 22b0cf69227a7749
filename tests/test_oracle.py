"""A continuum frequency-domain oracle for the write stage.

Before the switch the slope is a constant eta, so the medium is linear and
time-invariant.  With the co-moving equations of gemsim.solver and
numpy's transform convention (a time derivative is i*omega),

    alpha(z, w) = i*g*E(z, w) / (gamma/2 + i*(eta*z + w)),
    dE/dz = i*N*alpha = -g*N*E / (gamma/2 + i*(eta*z + w)),

so the cell transmits T(w) = exp(-(g*N/(i*eta)) * [ln(gamma/2 + i*(eta*z_max
+ w)) - ln(gamma/2 + i*(eta*z_min + w))]), the closed form of the
frequency-domain treatment of Hetet, Longdell, Alexander, Lam & Sellars,
PRL 100, 023601 (2008).  The recall stage, after the switch, is not here.
"""

import numpy as np
import pytest

from gemsim import PulseSpec, run_gem

from conftest import small_config

# zero padding of the input, in multiples of its length: with gamma = 0 the
# response decays like 1/t, so the wrap-around of the periodic transform
# falls with the padded length (about 1e-8 of the peak input at 64)
_PAD = 64


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
