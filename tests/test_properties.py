"""Property tests: the one-pass integrator and reconstruction against the
per-frame loops they replaced, kept here as oracles, bit for bit."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplerpose.motion import N_JOINTS, VelocitySequence, integrate
from dopplerpose.poseopt import OptConfig, optimize_initial_pose, reconstruct_long_term

# Derandomized and without an example database: every run draws the same
# cases and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


def loop_integrate(p0, v):
    """Oracle: the per-frame integrator."""
    out = np.empty_like(v.values)
    out[0] = p0
    for t in range(1, len(v.values)):
        out[t] = out[t - 1] + v.values[t] * v.dt
    return out


def loop_reconstruct(model, p0, v, cfg):
    """Oracle: long-term reconstruction as one loop over frames."""
    p = np.array(p0, dtype=np.float64)
    t_len = len(v)
    out = np.empty((t_len, N_JOINTS, 3))
    out[0] = p
    for t in range(1, t_len):
        if t % cfg.period == 0 and t_len - t >= 2:
            w = min(cfg.period, t_len - t)
            v_win = VelocitySequence(v.values[t: t + w], v.dt)
            corrected, _ = optimize_initial_pose(model, out[t - 1] + v.values[t] * v.dt,
                                                 v_win, cfg)
            out[t] = corrected
        else:
            out[t] = out[t - 1] + v.values[t] * v.dt
    return out


class WindowPredictor:
    """Directions that depend on every pose and velocity of the window it is
    given, so a window that starts, ends or integrates differently shows."""

    def opt_vectors(self, p, v):
        return np.tanh(p.sum(axis=0) - len(p) * p[0] + 3.0 * v.sum(axis=0))


def random_inputs(seed, t_len, dt, scale):
    rng = np.random.default_rng(seed)
    v = VelocitySequence(rng.normal(scale=scale, size=(t_len, N_JOINTS, 3)), dt)
    return rng.normal(size=(N_JOINTS, 3)), v


@PROPERTY
@given(seed=SEEDS, t_len=st.integers(1, 300), dt=st.floats(1e-3, 1.0),
       scale=st.floats(1e-3, 1e3))
def test_integrate_equals_per_frame_loop(seed, t_len, dt, scale):
    p0, v = random_inputs(seed, t_len, dt, scale)
    got = integrate(p0, v).positions
    assert got.tobytes() == loop_integrate(p0, v).tobytes()


@PROPERTY
@given(seed=SEEDS, t_len=st.integers(2, 60), period=st.integers(1, 70))
@example(seed=1, t_len=12, period=5)   # corrections at 5 and at 10 = T - 2
@example(seed=2, t_len=9, period=1)    # a correction at every frame up to T - 2
@example(seed=3, t_len=10, period=10)  # period = T: no correction
@example(seed=4, t_len=10, period=9)   # period = T - 1: no correction
@example(seed=5, t_len=10, period=8)   # one correction, at T - 2
@example(seed=6, t_len=2, period=1)    # too short for any correction
def test_reconstruct_equals_per_frame_loop(seed, t_len, period):
    p0, v = random_inputs(seed, t_len, 0.1, 0.5)
    cfg = OptConfig(optr=0.05, max_epochs=3, period=period)
    got = reconstruct_long_term(WindowPredictor(), p0, v, cfg).positions
    assert got.tobytes() == loop_reconstruct(WindowPredictor(), p0, v, cfg).tobytes()
