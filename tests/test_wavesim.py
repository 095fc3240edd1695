import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopplerpose import harness, wavesim
from dopplerpose.motion import N_JOINTS, ActivityKind, PoseSequence, generate_activity
from dopplerpose.wavesim import (
    C_LIGHT,
    BasebandSignal,
    Clutter,
    Geometry,
    InterferenceConfig,
    MirrorPlane,
    ScattererModel,
    _coarse_grid,
    _coarse_tracks,
    _joint_tracks,
    _path_amp,
    _ranges,
    _static_paths,
    _target_returns,
    bistatic_doppler,
    generate_waveform,
    synthesize_reference,
    synthesize_surveillance,
)

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.json"


def single_scatterer_pose(start, velocity, n_frames=8, dt=0.1):
    """All 17 joints collapsed onto one moving point."""
    start = np.asarray(start, dtype=float)
    velocity = np.asarray(velocity, dtype=float)
    t = np.arange(n_frames) * dt
    track = start[None] + t[:, None] * velocity[None]
    return PoseSequence(np.repeat(track[:, None, :], N_JOINTS, axis=1), dt)


def interp_delayed(u, query_times):
    """The waveform at arbitrary times by linear interpolation (0 outside)."""
    grid = u.times()
    return (np.interp(query_times, grid, u.samples.real, left=0.0, right=0.0)
            + 1j * np.interp(query_times, grid, u.samples.imag, left=0.0, right=0.0))


def interp_static_paths(u, paths):
    """Oracle: the sum over static (gain, tau) paths of gain times the waveform
    interpolated at t - tau, one `interp_delayed` per path."""
    return sum((gain * interp_delayed(u, u.times() - tau) for gain, tau in paths),
               np.zeros(len(u), dtype=np.complex128))


def interp_joint_tracks(p, times):
    """Oracle: the pose interpolated onto `times` by one np.interp per coordinate
    (ends clamped)."""
    frame_times = np.arange(len(p)) * p.dt
    out = np.empty((len(times), N_JOINTS, 3))
    for j in range(N_JOINTS):
        for a in range(3):
            out[:, j, a] = np.interp(times, frame_times, p.positions[:, j, a])
    return out


def blocked_target_returns(u, coarse_t, positions, weights, exponent, g):
    """Oracle: the moving-scatterer sum over blocks of 1,024 samples.

    Per sample it finds the knot segment, interpolates delay and amplitude,
    and builds the carrier phasor by a cumulative product of per-segment
    ratios, with an exact exp at each block start and at each sample that
    crosses a knot.
    """
    block = 1024
    keep = weights != 0.0
    x = positions[:, keep, :]
    nj = x.shape[1]
    fs = u.sample_rate_hz
    n = len(u)
    total = np.zeros(n, dtype=np.complex128)
    if nj == 0 or n < 2:
        return total
    r1 = np.linalg.norm(x - g.tx_pos, axis=2)
    r2 = np.linalg.norm(x - g.rx_sur_pos, axis=2)
    delay = (r1 + r2) * (fs / C_LIGHT)  # samples
    amp = weights[keep] * _path_amp(r1, exponent) * _path_amp(r2, exponent)
    knots = np.concatenate([delay.T, amp.T])
    rise = np.diff(knots, axis=1)
    knots = knots[:, :-1]
    seg_len = np.diff(coarse_t)
    rot = -2j * np.pi * g.carrier_hz / fs
    ratio = np.exp(rot * rise[:nj] / (seg_len * fs))
    us = u.samples
    for b0 in range(0, n, block):
        b1 = min(n, b0 + block)
        t = np.arange(b0, b1) / fs
        k = np.clip(np.searchsorted(coarse_t, t, side="right") - 1, 0, len(coarse_t) - 2)
        frac = (t - coarse_t[k]) / seg_len[k]
        lin = knots[:, k]
        lin += frac * rise[:, k]
        tau, a = lin[:nj], lin[nj:]
        step = ratio[:, k]
        cross = np.flatnonzero(k[1:] != k[:-1]) + 1
        step[:, cross] = np.exp(rot * (tau[:, cross] - tau[:, cross - 1]))
        step[:, 0] = np.exp(rot * tau[:, 0])
        phasor = np.cumprod(step, axis=1)
        phasor *= a
        s0 = phasor.sum(axis=0)
        phasor *= tau
        s1 = phasor.sum(axis=0)
        total[b0:b1] = (s0 - s1) * us[b0:b1]
        total[b0 + 1:b1] += s1[1:] * us[b0:b1 - 1]
        if b0 > 0:
            total[b0] += s1[0] * us[b0 - 1]
    total[0] = 0.0
    return total


def direct_target_returns(u, p, sc, g, planes=()):
    """Independent per-joint evaluation of the target and multipath returns.

    Each joint (and each mirror image) gets its delay and amplitude
    interpolated to every sample, the waveform interpolated at t - tau and
    its own complex exponential: no sub-sample or recurrence shortcut.
    """
    times = u.times()
    coarse_t = _coarse_grid(u)
    tracks = interp_joint_tracks(p, coarse_t)
    scenes = [(tracks, 1.0)] + [(pl.reflect(tracks), pl.amplitude) for pl in planes]
    total = np.zeros(len(times), dtype=np.complex128)
    for positions, amp_scale in scenes:
        for j in range(positions.shape[1]):
            w = sc.joint_weights[j] * amp_scale
            if w == 0.0:
                continue
            r1 = np.linalg.norm(positions[:, j] - g.tx_pos, axis=1)
            r2 = np.linalg.norm(positions[:, j] - g.rx_sur_pos, axis=1)
            tau = np.interp(times, coarse_t, (r1 + r2) / C_LIGHT)
            amp = np.interp(times, coarse_t, w * _path_amp(r1, sc.path_loss_exponent)
                            * _path_amp(r2, sc.path_loss_exponent))
            total += (amp * interp_delayed(u, times - tau)
                      * np.exp(-2j * np.pi * g.carrier_hz * tau))
    return total


def one_joint_weights(j=0):
    w = np.zeros(N_JOINTS)
    w[j] = 1.0
    return w


class TestGenerateWaveform:
    def test_deterministic(self):
        a = generate_waveform(20e6, 0.001, 50e6, seed=1)
        b = generate_waveform(20e6, 0.001, 50e6, seed=1)
        assert np.array_equal(a.samples, b.samples)
        c = generate_waveform(20e6, 0.001, 50e6, seed=2)
        assert not np.array_equal(a.samples, c.samples)

    def test_constant_modulus(self):
        u = generate_waveform(20e6, 0.0005, 50e6, seed=3)
        assert np.allclose(np.abs(u.samples), 1.0, atol=1e-12)

    def test_in_band_power_fraction(self):
        # periodogram oracle: >= 90% of power inside +-bandwidth/2
        u = generate_waveform(20e6, 0.01, 50e6, seed=1)
        spec = np.abs(np.fft.fft(u.samples)) ** 2
        freqs = np.fft.fftfreq(len(u), d=1.0 / u.sample_rate_hz)
        in_band = spec[np.abs(freqs) <= 10e6].sum() / spec.sum()
        assert in_band >= 0.90

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_is_the_exponential_of_its_phase(self, seed):
        """exp(1j * phase) of the generator's own draws: hop frequencies, then
        the starting phase."""
        fs, bandwidth, n = 16e3, 8e3, 4001
        u = generate_waveform(bandwidth, n / fs, fs, seed=seed)
        rng = np.random.default_rng(seed)
        hop = int(round(8.0 * fs / bandwidth))
        freqs = rng.uniform(-bandwidth / 2.0, bandwidth / 2.0, size=n // hop + 1)
        phase = 2.0 * np.pi * np.cumsum(np.repeat(freqs, hop)[:n]) / fs
        phase += rng.uniform(0.0, 2.0 * np.pi)
        assert len(u) == n
        assert np.abs(u.samples - np.exp(1j * phase)).max() <= 1e-15

    def test_rejects_bandwidth_over_sample_rate(self):
        with pytest.raises(ValueError):
            generate_waveform(60e6, 0.001, 50e6, seed=0)


class TestSynthesizeReference:
    def test_ref_at_tx_is_exact_copy(self):
        g = Geometry(tx_pos=[0, 0, 0], rx_sur_pos=[5, 0, 0], rx_ref_pos=[0, 0, 0])
        u = generate_waveform(1e6, 0.001, 4e6, seed=0)
        ref = synthesize_reference(u, g)
        assert np.allclose(ref.samples, u.samples)


class TestGeometry:
    @pytest.mark.parametrize("carrier_hz", [0.0, -5.8e9, np.inf, np.nan])
    def test_rejects_a_carrier_that_is_not_positive_and_finite(self, carrier_hz):
        with pytest.raises(ValueError, match="carrier_hz must be positive and finite"):
            Geometry(tx_pos=[0, 0, 0], rx_sur_pos=[5, 0, 0], rx_ref_pos=[0, 1, 0],
                     carrier_hz=carrier_hz)


class TestBistaticDoppler:
    GEOM = Geometry(tx_pos=[0, 0, 0], rx_sur_pos=[10, 0, 0], rx_ref_pos=[0, 1, 0])

    def test_zero_velocity(self):
        assert bistatic_doppler(self.GEOM, [3, 4, 0], [0, 0, 0]) == 0.0

    def test_baseline_degeneracy(self):
        # on the tx-rx segment, moving along it keeps the path length constant
        f = bistatic_doppler(self.GEOM, [5, 0, 0], [1, 0, 0])
        assert abs(f) < 1e-9

    def test_matches_finite_difference_of_path_length(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-20, 20, size=3)
            v = rng.uniform(-3, 3, size=3)
            if min(np.linalg.norm(x - self.GEOM.tx_pos),
                   np.linalg.norm(x - self.GEOM.rx_sur_pos)) < 0.5:
                continue
            h = 1e-3
            path = lambda pt: (np.linalg.norm(pt - self.GEOM.tx_pos)
                               + np.linalg.norm(pt - self.GEOM.rx_sur_pos))
            rate = (path(x + v * h) - path(x - v * h)) / (2 * h)
            expect = -(self.GEOM.carrier_hz / C_LIGHT) * rate
            assert abs(bistatic_doppler(self.GEOM, x, v) - expect) < 0.1

    def test_rejects_singular_geometry(self):
        with pytest.raises(ValueError):
            bistatic_doppler(self.GEOM, [0, 0, 0], [1, 0, 0])


class TestSynthesizeSurveillance:
    FS = 1e5
    GEOM = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0], rx_ref_pos=[-3.8, 8, 1.5])

    def _waveform(self, dur=0.05, seed=5):
        return generate_waveform(4e4, dur, self.FS, seed=seed)

    def test_dsi_only_is_delayed_scaled_copy(self):
        u = self._waveform()
        pose = single_scatterer_pose([0, 2, 1], [0, 0, 0])
        sc = ScattererModel(joint_weights=np.zeros(N_JOINTS))
        ic = InterferenceConfig(dsi_amplitude=0.7)
        _, sur = synthesize_surveillance(u, pose, sc, self.GEOM, ic, 0)
        tau = np.linalg.norm(self.GEOM.tx_pos - self.GEOM.rx_sur_pos) / C_LIGHT
        grid = u.times()
        expect = 0.7 * np.exp(-2j * np.pi * self.GEOM.carrier_hz * tau) * (
            np.interp(grid - tau, grid, u.samples.real, left=0.0)
            + 1j * np.interp(grid - tau, grid, u.samples.imag, left=0.0))
        assert np.abs(sur.samples - expect).max() < 1e-9

    def test_linearity_over_interference_terms(self):
        u = self._waveform()
        pose = single_scatterer_pose([1, 4, 1], [0.4, -0.5, 0])
        sc = ScattererModel(joint_weights=one_joint_weights())
        plane = MirrorPlane(point=[3, 0, 0], normal=[1, 0, 0], amplitude=0.3)
        cl = Clutter(position=[2, 5, 0.5], amplitude=0.8)
        _, full = synthesize_surveillance(
            u, pose, sc, self.GEOM,
            InterferenceConfig(dsi_amplitude=0.5, clutter=[cl], multipath=[plane]), 0)
        zero_targets = ScattererModel(joint_weights=np.zeros(N_JOINTS))
        parts = [synthesize_surveillance(u, pose, model, self.GEOM, ic, 0)[1] for model, ic in (
            (sc, InterferenceConfig()),
            (zero_targets, InterferenceConfig(dsi_amplitude=0.5)),
            (zero_targets, InterferenceConfig(clutter=[cl])),
            (sc, InterferenceConfig(multipath=[plane])))]
        # the multipath-only piece also re-synthesizes the direct target sum
        summed = sum(p.samples for p in parts) - parts[0].samples
        rel = np.abs(full.samples - summed).max() / np.abs(full.samples).max()
        assert rel < 1e-9

    def test_noise_is_seed_deterministic(self):
        u = self._waveform()
        pose = single_scatterer_pose([1, 4, 1], [0, 0, 0])
        sc = ScattererModel(joint_weights=one_joint_weights())
        a, b, c = (synthesize_surveillance(u, pose, sc, self.GEOM,
                                           InterferenceConfig(noise_floor=0.1), s)[1]
                   for s in (3, 3, 4))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("duration", [1e-3, 0.0123, 0.05])
    def test_noise_is_two_normal_draws(self, seed, duration):
        """The noise is a `normal` draw for the real part and then one for the
        imaginary part from `noise_seed`, bit for bit."""
        u = self._waveform(dur=duration)
        pose = single_scatterer_pose([1, 4, 1], [0.4, -0.5, 0])
        ic = InterferenceConfig(noise_floor=0.3)
        rng = np.random.default_rng(seed)
        scale = 0.3 / np.sqrt(2.0)
        noise = rng.normal(scale=scale, size=len(u)) + 1j * rng.normal(scale=scale, size=len(u))
        silent = ScattererModel(joint_weights=np.zeros(N_JOINTS))
        targets, full = synthesize_surveillance(u, pose, silent, self.GEOM, ic, seed)
        assert np.array_equal(full.samples - targets.samples, noise)
        targets, full = synthesize_surveillance(u, pose, ScattererModel(), self.GEOM, ic, seed)
        assert targets.samples.any()
        assert np.array_equal(full.samples, targets.samples + noise)

    def test_rejects_pose_shorter_than_signal(self):
        u = generate_waveform(4e4, 1.0, self.FS, seed=0)
        pose = single_scatterer_pose([0, 2, 1], [0, 0, 0], n_frames=5)  # 0.5 s
        sc = ScattererModel()
        with pytest.raises(ValueError):
            synthesize_surveillance(u, pose, sc, self.GEOM, InterferenceConfig(), 0)


WALK_GEOM = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0],
                     rx_ref_pos=[-3.8, 8, 1.5])
DEFAULT_PLANE = MirrorPlane(point=[3.5, 0, 0], normal=[1, 0, 0], amplitude=0.25)


def walking_scene():
    pose = generate_activity(ActivityKind.WPLUS, 5.0, seed=5)
    u = generate_waveform(8e3, 5.0, 16e3, seed=1)
    return u, pose


def offset_pose(pose, start):
    """`pose` from `start` s on, at its frame step: a scene that begins inside
    an activity, off its frame grid."""
    n = int((len(pose) * pose.dt - start) / pose.dt)
    return PoseSequence(_joint_tracks(pose, start + np.arange(n) * pose.dt), pose.dt)


def short_offset_scene():
    """A crouch from 0.8123 s on, at 100 kHz for 0.0987 s: uneven knot segments
    (197.4 samples apart), and a last 1,024-sample block of the blocked oracle
    shorter than the others."""
    pose = offset_pose(generate_activity(ActivityKind.CV, 2.0, seed=2), 0.8123)
    return generate_waveform(4e4, 0.0987, 1e5, seed=4), pose


class TestTargetReturnsOracle:
    @pytest.mark.parametrize("scene", [walking_scene, short_offset_scene])
    def test_matches_per_joint_interpolation(self, scene):
        u, pose = scene()
        sc = ScattererModel()
        for planes in ((), (DEFAULT_PLANE,)):
            _, new = synthesize_surveillance(u, pose, sc, WALK_GEOM,
                                             InterferenceConfig(multipath=list(planes)), 0)
            want = direct_target_returns(u, pose, sc, WALK_GEOM, planes)
            rel = np.abs(new.samples - want).max() / np.abs(want).max()
            assert rel < 1e-9
            # interpolation at t - tau < t_0 reads 0: nothing has arrived yet
            assert want[0] == 0 and new.samples[0] == 0


class TestSceneChannels:
    """The target-only and full channels of one `synthesize_surveillance` call."""

    def test_empty_interference_gives_equal_channels(self):
        u, pose = walking_scene()
        targets, full = synthesize_surveillance(u, pose, ScattererModel(), WALK_GEOM,
                                                InterferenceConfig(), 0)
        assert np.array_equal(targets.samples, full.samples)
        assert targets.sample_rate_hz == full.sample_rate_hz == u.sample_rate_hz

    def test_targets_unchanged_by_default_interference(self, monkeypatch):
        cfg = harness.parse_config(json.loads(DEFAULT_CONFIG.read_text()))
        ic = cfg.interference
        assert ic.multipath and ic.clutter and ic.dsi_amplitude > 0 and ic.noise_floor > 0
        u, pose = walking_scene()
        clean, _ = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry,
                                           InterferenceConfig(), 0)
        calls = []
        tracks_fn = wavesim._coarse_tracks

        def counted_tracks(*args):
            calls.append(args)
            return tracks_fn(*args)

        monkeypatch.setattr(wavesim, "_coarse_tracks", counted_tracks)
        targets, full = synthesize_surveillance(u, pose, cfg.scatterer, cfg.geometry, ic, 0)
        assert np.array_equal(targets.samples, clean.samples)
        assert not np.array_equal(full.samples, targets.samples)
        # the mirror images reuse the direct joints' tracks
        assert len(calls) == 1


def scene_paths(u, pose, planes=()):
    """Coarse grid, scatterer tracks and weights of the direct joints, or of
    their mirror images in `planes`."""
    coarse_t, tracks = _coarse_tracks(u, pose)
    weights = ScattererModel().joint_weights
    if not planes:
        return coarse_t, tracks, weights
    return (coarse_t, np.concatenate([pl.reflect(tracks) for pl in planes], axis=1),
            np.concatenate([pl.amplitude * weights for pl in planes]))


def assert_matches_blocked(u, coarse_t, positions, weights):
    got = _target_returns(u, coarse_t, positions, weights, 2.0, WALK_GEOM)
    want = blocked_target_returns(u, coarse_t, positions, weights, 2.0, WALK_GEOM)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


SWEEP_POSE = generate_activity(ActivityKind.WMINUS, 2.0, seed=3)


class TestSegmentMajorTargets:
    """The knot-segment form against the per-sample blocked form it replaced."""

    @pytest.mark.parametrize("planes", [(), (DEFAULT_PLANE,)], ids=["direct", "mirror"])
    @pytest.mark.parametrize("scene", [walking_scene, short_offset_scene])
    def test_matches_blocked_oracle(self, scene, planes):
        u, pose = scene()
        assert_matches_blocked(u, *scene_paths(u, pose, planes))

    # 16 kHz puts 32 samples in a knot segment and 64 segments in a block:
    # 0.05 s is shorter than one block, 0.2 s one full block and a partial one.
    # The signal starts `start` s into the walk.
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(fs=st.floats(2e3, 5e4), start=st.floats(0.0, 1.5),
           duration=st.floats(1e-3, 0.4), seed=st.integers(0, 2 ** 31))
    @example(fs=16e3, start=0.0, duration=0.05, seed=1)
    @example(fs=16e3, start=0.3, duration=0.2, seed=2)
    @example(fs=1e5, start=0.8123, duration=0.1, seed=4)
    @example(fs=3e3, start=1.2, duration=1e-3, seed=5)
    def test_sweep_over_rate_offset_and_duration(self, fs, start, duration, seed):
        u = generate_waveform(fs / 2, duration, fs, seed=seed)
        assert_matches_blocked(u, *scene_paths(u, offset_pose(SWEEP_POSE, start)))

    def test_zero_weights_and_short_signals(self):
        u, pose = short_offset_scene()
        coarse_t, tracks, _ = scene_paths(u, pose)
        silent = _target_returns(u, coarse_t, tracks, np.zeros(N_JOINTS), 2.0, WALK_GEOM)
        assert silent.shape == (len(u),) and not silent.any()
        # joints with weight 0 drop out of the sum
        assert_matches_blocked(u, coarse_t, tracks, one_joint_weights(5))
        for n in (0, 1):
            short = BasebandSignal(u.samples[:n], u.sample_rate_hz)
            coarse_t, tracks, weights = scene_paths(short, pose)
            out = _target_returns(short, coarse_t, tracks, weights, 2.0, WALK_GEOM)
            assert out.shape == (n,) and not out.any()

    def test_ranges_equal_norm_bit_for_bit(self):
        u, pose = short_offset_scene()
        _, tracks, _ = scene_paths(u, pose)
        spread = np.random.default_rng(3).normal(scale=50.0, size=(300, N_JOINTS, 3))
        for x in (tracks, spread):
            for point in (WALK_GEOM.tx_pos, WALK_GEOM.rx_sur_pos):
                assert np.array_equal(_ranges(x, point), np.linalg.norm(x - point, axis=2))

    def test_default_spectrograms_match_replaced_path(self, monkeypatch):
        """S and M of default-config activities against the same activities
        rendered with the blocked returns, the interpolated static paths and
        the per-column joint tracks."""
        cfg = harness.parse_config(json.loads(DEFAULT_CONFIG.read_text()))

        def render():
            return [harness.simulate_activity(cfg, kind, 40 + i, start_xy=(0.4, -0.3))
                    for i, kind in enumerate(cfg.kinds[:3])]

        new = render()
        monkeypatch.setattr(wavesim, "_target_returns", blocked_target_returns)
        monkeypatch.setattr(wavesim, "_static_paths", interp_static_paths)
        monkeypatch.setattr(wavesim, "_joint_tracks", interp_joint_tracks)
        old = render()
        for a, b in zip(new, old):
            for spec_new, spec_old in ((a[1], b[1]), (a[2], b[2])):  # S, M
                assert np.abs(spec_new.values - spec_old.values).max() <= 1e-9


def forty_samples():
    # A power-of-two rate keeps t - tau exact for dyadic delays, so the
    # oracle's `left=0` edge falls where the closed form puts it.
    fs = 8192.0
    return generate_waveform(4e3, 40 / fs, fs, seed=2)


class TestShifted:
    """One static path through `_static_paths`."""

    @pytest.mark.parametrize("samples", [0.0, 1e-3, 0.25, 0.5, 0.999])
    def test_matches_interpolation(self, samples):
        u = forty_samples()
        tau = samples / u.sample_rate_hz
        got = _static_paths(u, [(1.0, tau)])
        want = interp_delayed(u, u.times() - tau)
        assert np.abs(got - want).max() <= 1e-14
        # at sample 0 only a zero-delay path has arrived
        arrived = u.times() >= tau * (1 - 1e-12)
        assert not got[~arrived].any()
        assert np.abs(got[arrived]).min(initial=1.0) > 0.0


def random_paths(u, delays):
    """(gain, tau) static paths with the given delays in samples and seeded gains."""
    gains = np.random.default_rng(len(delays)).normal(size=(len(delays), 2)) @ [1, 1j]
    return [(g, d / u.sample_rate_hz) for g, d in zip(gains, delays)]


class TestStaticPaths:
    """Several static paths through `_static_paths`: one two-tap filter for
    all of them against one interpolation per path."""

    @pytest.mark.parametrize("delays", [
        [0.25, 0.5, 0.375],
        [0.875, 0.0, 0.0625, 0.5, 0.0],  # two that have arrived at sample 0
        [],
    ], ids=["fractional", "with-zero", "none"])
    def test_paths_match_summed_interpolation(self, delays):
        u = forty_samples()
        paths = random_paths(u, delays)
        got = _static_paths(u, paths)
        want = interp_static_paths(u, paths)
        assert got.shape == want.shape == (len(u),)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(initial=0.0)
        # only zero-delay paths have arrived at sample 0
        assert (got[0] != 0) == (0.0 in delays)

    @pytest.mark.parametrize("n", [1, 2])
    def test_short_signals(self, n):
        u = BasebandSignal(forty_samples().samples[:n], 8192.0)
        paths = random_paths(u, [0.0, 0.5, 0.25])
        got = _static_paths(u, paths)
        want = interp_static_paths(u, paths)
        assert got.shape == want.shape == (n,)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


class TestJointTracks:
    def test_matches_per_column_interpolation(self):
        pose = generate_activity(ActivityKind.CV, 2.0, seed=4)
        end = len(pose) * pose.dt
        times = np.concatenate([np.linspace(0.0, end + 0.3, 1001),
                                np.arange(len(pose)) * pose.dt, [end, end + 5.0]])
        got = _joint_tracks(pose, times)
        want = interp_joint_tracks(pose, times)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # past the last frame the last frame holds
        assert np.array_equal(got[-1], pose.positions[-1])

    @pytest.mark.parametrize("n_frames", [1, 2])
    def test_short_poses(self, n_frames):
        rng = np.random.default_rng(n_frames)
        pose = PoseSequence(rng.normal(size=(n_frames, N_JOINTS, 3)), 0.1)
        times = np.linspace(0.0, 0.35, 57)
        got = _joint_tracks(pose, times)
        want = interp_joint_tracks(pose, times)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestDelayLimits:
    FS = 16e3
    ONE_SAMPLE_M = C_LIGHT / 16e3

    def _scene(self):
        u = generate_waveform(8e3, 0.2, self.FS, seed=3)
        return u, single_scatterer_pose([0, 2, 1], [0.5, 0, 0], n_frames=3)

    def test_rejects_target_delay_of_one_sample(self):
        u, pose = self._scene()
        far = Geometry(tx_pos=[-self.ONE_SAMPLE_M, 2, 1], rx_sur_pos=[0, 2.5, 1],
                       rx_ref_pos=[0, 0, 0])
        with pytest.raises(ValueError, match="16000 Hz"):
            synthesize_surveillance(u, pose, ScattererModel(), far, InterferenceConfig(), 0)

    def test_rejects_mirror_delay_of_one_sample(self):
        u, pose = self._scene()
        g = Geometry(tx_pos=[-4, 2, 1], rx_sur_pos=[0, 2.5, 1], rx_ref_pos=[0, 0, 0])
        far_wall = MirrorPlane(point=[self.ONE_SAMPLE_M / 2, 0, 0], normal=[1, 0, 0],
                               amplitude=0.3)
        _, ok = synthesize_surveillance(u, pose, ScattererModel(), g, InterferenceConfig(), 0)
        assert np.abs(ok.samples).max() > 0
        with pytest.raises(ValueError, match="rx"):
            synthesize_surveillance(u, pose, ScattererModel(), g,
                                    InterferenceConfig(multipath=[far_wall]), 0)

    def _static_scene(self, where, length):
        """A geometry and interference whose static path `where` is `length` m long."""
        if where == "the reference path":
            return Geometry([0, 0, 0], [0, 0, 1], [length, 0, 0]), InterferenceConfig()
        if where == "the direct path":
            return (Geometry([0, 0, 0], [length, 0, 0], [0, 0, 1]),
                    InterferenceConfig(dsi_amplitude=1.0))
        # clutter 1 is half the length out from a receiver beside the transmitter
        g = Geometry([0, 0, 0], [0, 0, 0], [0, 0, 1])
        return g, InterferenceConfig(clutter=[Clutter([0, 3, 1], 0.5),
                                              Clutter([length / 2, 0, 0], 1.0)])

    def _render(self, where, length):
        u, pose = self._scene()
        g, ic = self._static_scene(where, length)
        if where == "the reference path":
            return synthesize_reference(u, g)
        return synthesize_surveillance(u, pose, ScattererModel(), g, ic, 0)[1]

    @pytest.mark.parametrize("where", ["the reference path", "the direct path",
                                       "the path via clutter 1"])
    def test_rejects_static_path_of_one_sample(self, where, monkeypatch):
        assert self.ONE_SAMPLE_M / C_LIGHT * self.FS == 1.0
        tracks = []
        monkeypatch.setattr(wavesim, "_coarse_tracks", lambda *a: tracks.append(a))
        with pytest.raises(ValueError, match=f"{where} of 18737.0 m .* 16000 Hz"):
            self._render(where, self.ONE_SAMPLE_M)
        # rejected before any return is rendered
        assert not tracks

    @pytest.mark.parametrize("where", ["the reference path", "the direct path",
                                       "the path via clutter 1"])
    def test_accepts_static_path_just_under_one_sample(self, where):
        sig = self._render(where, 0.999 * self.ONE_SAMPLE_M)
        assert np.abs(sig.samples).max() > 0


class TestSignalIO:
    def test_round_trip(self, tmp_path):
        u = generate_waveform(1e4, 0.01, 5e4, seed=9)
        path = tmp_path / "sig.dpc"
        u.save(path)
        back = BasebandSignal.load(path)
        assert back.sample_rate_hz == u.sample_rate_hz
        assert np.array_equal(back.samples.astype(np.complex64),
                              u.samples.astype(np.complex64))
