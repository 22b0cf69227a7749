import math
from dataclasses import replace

import numpy as np
import pytest

from gemsim import Grid, GemConfig, PulseSpec, StarkProfile, run_gem, solver
from gemsim.cli import preset_path
from gemsim.experiments import load_spec

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


def _fig2_record(name, **stark):
    """Run of a fig2 preset, with `stark` fields replaced in its schedule."""
    spec = load_spec(preset_path(name))
    config = replace(spec.config, stark=replace(spec.config.stark, **stark))
    return run_gem(config, spec.pulse, field_stride=spec.params["field_stride"])


@pytest.fixture(scope="session")
def fig2_abrupt_record():
    return _fig2_record("fig2_abrupt")


@pytest.fixture(scope="session")
def fig2_tanh_record():
    return _fig2_record("fig2_tanh")


@pytest.fixture(scope="session")
def fig2_freeze_record():
    # slope frozen for 10 us mid-storage; echo shifts from 155 to 165 us
    return _fig2_record("fig2_abrupt", freeze_intervals=((30.0, 40.0),))


def reference_march(begin, finish, ein, ein_mid, coupling, dz, times, keep, state, consume):
    """solver._march without its per-step trims, for byte-for-byte checks.

    The corrector multiplies by the half-step weight and then by 0.5, and
    every input sample is added, zero or not; the operators (begin,
    finish) and the field quadrature (solver.cumulative_simpson) are the
    solver's own.  Each kept row goes to consume(j, ...) as a copy, j being
    its place in keep.
    """
    nt = times.size
    E = np.full(state[0].size, ein[0], dtype=complex)
    e_mid = np.empty_like(E)
    src = np.empty_like(E)
    step = coupling * dz
    out = np.empty(nt, dtype=complex)
    norm = np.empty(nt)
    v = state[-1].view(float)
    index = {int(n): j for j, n in enumerate(keep)}

    def record(n):
        out[n] = E[-1]
        norm[n] = float(np.einsum("i,i->", v, v)) * dz
        if n in index:
            j = index[n]
            consume(j, *(f.copy() for f in (E, *state)))

    record(0)
    for n in range(nt - 1):
        rot, w, _ = begin(n)
        np.multiply(w, E, out=src)
        src += rot
        solver.cumulative_simpson(src, step, out=e_mid)
        e_mid += ein_mid[n]
        np.add(E, e_mid, out=src)
        np.multiply(w, src, out=src)
        src *= 0.5
        src += rot
        solver.cumulative_simpson(src, step, out=e_mid)
        e_mid += ein_mid[n]
        finish(n, e_mid)
        solver.cumulative_simpson(state[0], step, out=E)
        E += ein[n + 1]
        record(n + 1)
    return out, norm
