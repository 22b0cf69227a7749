import math

import pytest

from gemsim import Grid, GemConfig, PulseSpec, StarkProfile, run_gem

ETA_8MHZ = 2.0 * math.pi * 8.0 / 6.0  # 8 MHz Stark span across the 6 mm cell


def small_config(beta=1.0, switch=15.0, ramp_tau=0.0, gamma=0.0, freeze=(),
                 eta0=4.0, t_max=40.0, nt=1601, nz=128, delta_offset=0.0):
    """Fast unit-test medium: 2 mm cell, ~0.1 s per run."""
    stark = StarkProfile(eta0=eta0, switch_time=switch, ramp_tau=ramp_tau,
                         delta_offset=delta_offset, freeze_intervals=freeze)
    grid = Grid(z_min=-1.0, z_max=1.0, nz=nz, t_max=t_max, nt=nt)
    return GemConfig(g=1.0, linear_density=beta * eta0, gamma=gamma,
                     stark=stark, grid=grid)


def small_pulse(center=4.0, width=1.2):
    return PulseSpec(kind="gaussian", center=center, width=width)


def fig2_config(beta=3.3, ramp_tau=0.0, freeze=()):
    stark = StarkProfile(eta0=ETA_8MHZ, switch_time=80.0, ramp_tau=ramp_tau,
                         freeze_intervals=freeze)
    grid = Grid(z_min=-3.0, z_max=3.0, nz=4096, t_max=200.0, nt=8001)
    return GemConfig(g=1.0, linear_density=beta * ETA_8MHZ, gamma=0.0,
                     stark=stark, grid=grid)


FIG2_PULSE = PulseSpec(kind="gaussian", center=5.0, width=1.5)


@pytest.fixture(scope="session")
def fig2_abrupt_record():
    return run_gem(fig2_config(), FIG2_PULSE, field_stride=40)


@pytest.fixture(scope="session")
def fig2_tanh_record():
    return run_gem(fig2_config(ramp_tau=58.0), FIG2_PULSE, field_stride=40)


@pytest.fixture(scope="session")
def fig2_freeze_record():
    # slope frozen for 10 us mid-storage; echo shifts from 155 to 165 us
    return run_gem(fig2_config(freeze=((30.0, 40.0),)), FIG2_PULSE, field_stride=40)
