"""Property tests: the one-pass integrator and reconstruction against the
per-frame loops they replaced, kept here as oracles, bit for bit; `integrate`
and `differentiate` as inverses up to float64 round-off; bit-exact container
round trips, raw and through each array class's save/load; the CAF against
its direct sum, CPI by CPI; CLEAN cancelling a static path in every CPI; and
S not depending on the waveform at zero lag."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplerpose import containers, harness
from dopplerpose.caf import Spectrogram, clean_dsi, compute_caf, self_caf
from dopplerpose.motion import (
    ActivityKind,
    N_JOINTS,
    PoseSequence,
    VelocitySequence,
    differentiate,
    generate_activity,
    integrate,
)
from dopplerpose.poseopt import OptConfig, optimize_initial_pose, reconstruct_long_term
from dopplerpose.wavesim import (
    C_LIGHT,
    BasebandSignal,
    InterferenceConfig,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)
from test_caf import direct_caf

# Derandomized and without an example database: every run draws the same
# cases and writes nothing.
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(0, 2 ** 32 - 1)


@given(seed=SEEDS, n=st.integers(8, 300), oversample=st.integers(1, 4),
       fs=st.floats(1e3, 1e5), span_fraction=st.floats(1e-3, 1.0 - 1e-9))
@example(seed=0, n=257, oversample=4, fs=16e3, span_fraction=1.0 - 1e-9)
@example(seed=1, n=293, oversample=3, fs=1e4, span_fraction=0.02)
@example(seed=2, n=16, oversample=1, fs=1e4, span_fraction=1e-3)
@PROPERTY
def test_caf_equals_direct_sum(seed, n, oversample, fs, span_fraction):
    """Every grid point of `compute_caf` is the direct sum at its frequency,
    for any CPI length (primes included), oversampling and span."""
    rng = np.random.default_rng(seed)
    sur = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), fs)
    ref = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), fs)
    span = span_fraction * fs / 2.0
    m = compute_caf(sur, ref, cpi_s=n / fs, doppler_span_hz=span,
                    doppler_oversample=oversample)
    assert np.abs(m.doppler_axis).max() <= span
    oracle = direct_caf(sur, ref, m.doppler_axis)
    assert np.abs(m.grid - oracle).max() <= 1e-12 * np.abs(oracle).max()


@given(seed=SEEDS, n=st.integers(2, 120), n_cpi=st.integers(2, 6), tail=st.integers(0, 119),
       oversample=st.integers(1, 4), span_fraction=st.floats(1e-3, 1.0 - 1e-9))
@example(seed=0, n=160, n_cpi=5, tail=159, oversample=4, span_fraction=0.0125)
@PROPERTY
def test_every_cpi_row_is_the_direct_sum_of_its_slice(seed, n, n_cpi, tail, oversample,
                                                      span_fraction):
    """Row t of a multi-CPI `compute_caf` is the direct sum over CPI t's slice at
    every kept bin; a ragged tail of fewer than n samples is dropped."""
    fs = 16e3
    rng = np.random.default_rng(seed)
    size = n_cpi * n + tail % n
    sur = BasebandSignal(rng.normal(size=size) + 1j * rng.normal(size=size), fs)
    ref = BasebandSignal(rng.normal(size=size) + 1j * rng.normal(size=size), fs)
    m = compute_caf(sur, ref, cpi_s=n / fs, doppler_span_hz=span_fraction * fs / 2.0,
                    doppler_oversample=oversample)
    assert m.grid.shape[0] == n_cpi
    for t, row in enumerate(m.grid):
        sl = slice(t * n, (t + 1) * n)
        oracle = direct_caf(BasebandSignal(sur.samples[sl], fs),
                            BasebandSignal(ref.samples[sl], fs), m.doppler_axis)[0]
        assert np.abs(row - oracle).max() <= 1e-12 * np.abs(oracle).max()


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

    def window(self, v):
        return v.values

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


EPS = np.finfo(np.float64).eps


@PROPERTY
@given(seed=SEEDS, t_len=st.integers(2, 300), dt=st.floats(1e-3, 1.0),
       scale=st.floats(1e-3, 1e3))
def test_differentiate_inverts_integrate(seed, t_len, dt, scale):
    # p[t] = p[t-1] + v[t] dt rounds once in v dt and once in the sum, and the
    # difference p[t] - p[t-1] once more, each relative to its own size: the
    # recovered v[t] is off by at most a few eps (|v[t]| + |p[t]| / dt).
    p0, v = random_inputs(seed, t_len, dt, scale)
    p = integrate(p0, v).positions
    got = differentiate(PoseSequence(p, dt)).values
    assert not got[0].any()
    bound = 4 * EPS * (np.abs(v.values[1:]) + np.abs(p[1:]) / dt)
    assert (np.abs(got[1:] - v.values[1:]) <= bound).all()


@PROPERTY
@given(seed=SEEDS, t_len=st.integers(2, 300), dt=st.floats(1e-3, 1.0),
       scale=st.floats(1e-3, 1e3))
def test_integrate_inverts_differentiate(seed, t_len, dt, scale):
    # each frame adds the rounding of one difference, one division, one
    # product and one sum, each at most eps times a value no larger than
    # 2 max|p|: frame t is off by at most 7 t eps max|p|
    rng = np.random.default_rng(seed)
    p = rng.normal(scale=scale, size=(t_len, N_JOINTS, 3)) + rng.normal(size=3)
    got = integrate(p[0], differentiate(PoseSequence(p, dt))).positions
    assert np.array_equal(got[0], p[0])
    frames = np.arange(t_len)[:, None, None]
    assert (np.abs(got - p) <= 8 * EPS * frames * np.abs(p).max()).all()


HEADER_VALUES = st.one_of(st.integers(), st.booleans(), st.text(max_size=8),
                          st.floats(allow_nan=False, allow_infinity=False))


@PROPERTY
@given(seed=SEEDS, size=st.integers(0, 200), tag=st.sampled_from(["f32le", "c64le"]),
       extra=st.dictionaries(st.text(min_size=1, max_size=8), HEADER_VALUES, max_size=4))
def test_container_round_trip_is_bit_exact(seed, size, tag, extra):
    # random bit patterns, NaN payloads and infinities included
    dtype = np.dtype({"f32le": "<f4", "c64le": "<c8"}[tag])
    bits = np.random.default_rng(seed).integers(0, 2 ** 63, size=size * dtype.itemsize // 4,
                                                dtype=np.uint64)
    payload = bits.astype("<u4").view(dtype)
    header = {k: val for k, val in extra.items() if k not in ("dtype", "version")}
    header["dtype"] = tag
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a.bin", Path(tmp) / "b.bin"
        containers.write_container(path, header, payload)
        got_header, got = containers.read_container(path)
        assert got_header == {**header, "version": containers.FORMAT_VERSION}
        assert got.dtype == dtype and got.tobytes() == payload.tobytes()
        containers.write_container(again, got_header, got)
        assert again.read_bytes() == path.read_bytes()


def _saved_object(kind, rng, length, width, step, scale):
    """A `kind` object holding float32- or complex64-representable random values."""
    def f32(shape):
        return (scale * rng.normal(size=shape)).astype(np.float32).astype(np.float64)

    if kind == "pose":
        return PoseSequence(f32((length, N_JOINTS, 3)), step)
    if kind == "signal":
        return BasebandSignal(f32(length) + 1j * f32(length), 1.0 / step)
    return Spectrogram(np.abs(f32((width, length))),
                       np.linspace(-width * scale, width * scale, width), step)


@PROPERTY
@given(seed=SEEDS, kind=st.sampled_from(["pose", "signal", "spectrogram"]),
       length=st.integers(1, 60), width=st.integers(2, 40), step=st.floats(1e-3, 1.0),
       scale=st.floats(1e-3, 1e3))
def test_class_save_load_round_trip_is_bit_exact(seed, kind, length, width, step, scale):
    obj = _saved_object(kind, np.random.default_rng(seed), length, width, step, scale)
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp) / "a.dpc", Path(tmp) / "b.dpc"
        obj.save(path)
        back = type(obj).load(path)
        for name, value in vars(obj).items():
            got = getattr(back, name)
            assert np.asarray(got).dtype == np.asarray(value).dtype
            assert np.array_equal(got, value), name
        back.save(again)
        assert again.read_bytes() == path.read_bytes()


@PROPERTY
@given(seed=SEEDS, n=st.integers(8, 400), log_mag=st.floats(-3.0, 3.0),
       angle=st.floats(-np.pi, np.pi))
def test_clean_cancels_a_scaled_reference(seed, n, log_mag, angle):
    """sur = alpha * ref is one static path at delay 0: a single CLEAN
    iteration leaves at most 1e-12 of the zero-Doppler cell's energy."""
    rng = np.random.default_rng(seed)
    ref = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), 1e3)
    alpha = 10.0 ** log_mag * np.exp(1j * angle)
    sur = BasebandSignal(alpha * ref.samples, 1e3)
    kw = dict(cpi_s=n / 1e3, doppler_span_hz=200.0)
    caf = compute_caf(sur, ref, **kw)
    out = clean_dsi(caf, self_caf(ref, **kw))
    m0 = int(np.argmin(np.abs(caf.doppler_axis)))
    before = np.sum(np.abs(caf.grid[:, m0]) ** 2)
    after = np.sum(np.abs(out.grid[:, m0]) ** 2)
    assert after <= 1e-12 * before


@PROPERTY
@given(seed=SEEDS, n=st.integers(8, 200), n_cpi=st.integers(2, 8),
       log_mag=st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8),
       angle=st.lists(st.floats(-np.pi, np.pi), min_size=8, max_size=8))
def test_clean_cancels_a_reference_scaled_anew_in_every_cpi(seed, n, n_cpi, log_mag, angle):
    """sur_t = alpha_t * ref_t, with its own complex alpha_t in each CPI t: one
    CLEAN pass maps every row to zeros within 1e-12 of that row's scale."""
    rng = np.random.default_rng(seed)
    ref = BasebandSignal(rng.normal(size=n_cpi * n) + 1j * rng.normal(size=n_cpi * n), 1e3)
    alpha = 10.0 ** np.array(log_mag[:n_cpi]) * np.exp(1j * np.array(angle[:n_cpi]))
    sur = BasebandSignal(np.repeat(alpha, n) * ref.samples, 1e3)
    kw = dict(cpi_s=n / 1e3, doppler_span_hz=200.0)
    caf = compute_caf(sur, ref, **kw)
    out = clean_dsi(caf, self_caf(ref, **kw))
    assert out.grid.shape == caf.grid.shape == (n_cpi, len(caf.doppler_axis))
    for row, before in zip(out.grid, caf.grid):
        assert np.abs(row).max() <= 1e-12 * np.abs(before).max()


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def zero_lag_s(cfg, u, pose):
    """S of `pose` rendered from the waveform u: the target-only channel
    against the reference, with no CLEAN pass, as `simulate_activity` does."""
    targets, _ = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry,
                                         InterferenceConfig(), 0)
    ref = synthesize_reference(u, cfg.geometry)
    return harness.process_channel(cfg, targets, ref, False).values


@pytest.mark.parametrize("bandwidth_hz", [2e3, 8e3, 16e3])
def test_s_does_not_depend_on_the_waveform(bandwidth_hz):
    """At zero lag a constant-modulus waveform cancels: S rendered from
    `generate_waveform` is S rendered from a plain carrier (u = 1) but for the
    two-tap delay blend tau fs (u[n] - u[n-1]) of each return, which is at
    most 2 tau fs of it. So the maps, each scaled to a peak of 1, differ by
    at most twice the scene's largest target path delay in samples (about
    9.2e-4 at the default geometry; 2.1e-4 seen)."""
    cfg = harness.parse_config(json.loads(DEFAULT_CONFIG.read_text()))
    g, fs = cfg.geometry, cfg.sample_rate_hz
    for kind in ActivityKind:
        for seed in (3, 7):
            pose = generate_activity(kind, 2.0, seed, dt=cfg.dt)
            hopped = generate_waveform(bandwidth_hz, len(pose) * pose.dt, fs, seed)
            carrier = BasebandSignal(np.ones(len(hopped), dtype=np.complex128), fs)
            x = pose.positions
            path = np.linalg.norm(x - g.tx_pos, axis=-1) + np.linalg.norm(x - g.rx_sur_pos,
                                                                          axis=-1)
            bound = 2 * path.max() * fs / C_LIGHT
            diff = np.abs(zero_lag_s(cfg, hopped, pose) - zero_lag_s(cfg, carrier, pose))
            assert diff.max() <= bound, (kind, seed)
