import numpy as np
import pytest

from dopplerpose import motion
from dopplerpose.motion import (
    ActivityKind,
    PoseSequence,
    VelocitySequence,
    bone_lengths,
    differentiate,
    generate_activity,
    generate_composite,
    integrate,
)


def single_segment_oracle(kind, duration, seed, dt=0.1, start_xy=(0.0, 0.0)):
    """Oracle: one primitive generated on its own, outside the composite path."""
    rng = np.random.default_rng(seed)
    t = np.arange(int(round(duration / dt))) * dt
    state = motion._ChainState(xy=np.asarray(start_xy, dtype=float), heading=0.0)
    return motion._fk(motion._TRACK_BUILDERS[kind](t, duration, rng, state))


def random_pose_sequence(rng, n_frames, dt=0.1, scale=0.5):
    steps = rng.normal(scale=scale * dt, size=(n_frames, motion.N_JOINTS, 3))
    return PoseSequence(np.cumsum(steps, axis=0), dt)


class TestGenerateActivity:
    def test_deterministic_per_seed(self):
        a = generate_activity(ActivityKind.WPLUS, 5.0, seed=7)
        b = generate_activity(ActivityKind.WPLUS, 5.0, seed=7)
        assert np.array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = generate_activity(ActivityKind.WPLUS, 5.0, seed=7)
        b = generate_activity(ActivityKind.WPLUS, 5.0, seed=8)
        assert not np.array_equal(a.positions, b.positions)

    def test_stand_up_raises_root(self):
        for seed in (0, 5, 99):
            p = generate_activity(ActivityKind.SU, 5.0, seed=seed)
            assert p.positions[-1, 0, 2] > p.positions[0, 0, 2]

    def test_walking_speed_band_by_finite_differences(self):
        # oracle: numerically differentiate the generated root track
        p = generate_activity(ActivityKind.WPLUS, 5.0, seed=7)
        vy = np.diff(p.positions[:, 0, 1]) / p.dt
        assert 0.5 <= vy.mean() <= 1.5

    def test_walk_away_moves_negative_y(self):
        p = generate_activity(ActivityKind.WMINUS, 5.0, seed=3)
        vy = np.diff(p.positions[:, 0, 1]) / p.dt
        assert -1.5 <= vy.mean() <= -0.5

    @pytest.mark.parametrize("kind", list(ActivityKind))
    def test_displacement_and_speed_bounds(self, kind):
        for seed in (0, 1, 2):
            p = generate_activity(kind, 5.0, seed=seed)
            disp = np.linalg.norm(np.diff(p.positions, axis=0), axis=2)
            assert disp.max() <= 0.3
            assert disp.max() / p.dt <= 3.0

    @pytest.mark.parametrize("kind", list(ActivityKind))
    def test_bone_lengths_constant(self, kind):
        p = generate_activity(kind, 4.0, seed=4)
        ref = bone_lengths(p.positions[0])
        for f in p.positions[1:]:
            assert np.abs(bone_lengths(f) - ref).max() < 1e-6

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            generate_activity("walk", 5.0, seed=0)
        with pytest.raises(ValueError):
            generate_activity(ActivityKind.WPLUS, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_activity(ActivityKind.WPLUS, 90.0, seed=0)


class TestComposite:
    @pytest.mark.parametrize("kind", list(ActivityKind))
    def test_activity_is_the_single_segment_oracle(self, kind):
        for seed, duration, kw in ((0, 5.0, {}), (17, 2.0, {}),
                                   (5, 3.3, dict(dt=0.05, start_xy=(0.3, -1.2)))):
            want = single_segment_oracle(kind, duration, seed, **kw)
            got = generate_activity(kind, duration, seed, **kw).positions
            assert got.tobytes() == want.tobytes()

    def test_first_segment_is_the_activity(self):
        kinds = [ActivityKind.SD, ActivityKind.SU, ActivityKind.HT]
        p = generate_composite(kinds, 3.0, seed=4)
        alone = generate_activity(ActivityKind.SD, 3.0, seed=4)
        assert np.array_equal(p.positions[:len(alone)], alone.positions)

    @pytest.mark.parametrize("kinds", [["W+"], ["W+", ActivityKind.HT],
                                       [ActivityKind.HT, "walk"]])
    def test_unknown_kind_named(self, kinds):
        with pytest.raises(ValueError, match="unknown activity kind"):
            generate_composite(kinds, 5.0, seed=0)

    @pytest.mark.parametrize("duration", [1.0, 1.99, 60.5, 90.0])
    def test_segment_duration_bounds(self, duration):
        with pytest.raises(ValueError, match=r"\[2, 60\]"):
            generate_composite([ActivityKind.WPLUS, ActivityKind.HT], duration, seed=0)

    def test_chained_segments_are_continuous(self):
        kinds = [ActivityKind.SU, ActivityKind.WPLUS, ActivityKind.PU,
                 ActivityKind.BR, ActivityKind.WMINUS, ActivityKind.SD,
                 ActivityKind.SU]
        p = generate_composite(kinds, 5.0, seed=11)
        assert len(p) == 350
        disp = np.linalg.norm(np.diff(p.positions, axis=0), axis=2)
        assert disp.max() <= 0.3

    def test_incompatible_postures_rejected(self):
        with pytest.raises(ValueError):
            generate_composite([ActivityKind.SD, ActivityKind.WPLUS], 5.0, seed=0)
        with pytest.raises(ValueError):
            generate_composite([ActivityKind.WPLUS, ActivityKind.SU], 5.0, seed=0)


class TestDifferentiateIntegrate:
    def test_constant_pose_zero_velocity(self):
        frame = motion.neutral_frame()
        p = PoseSequence(np.repeat(frame[None], 10, axis=0), dt=0.1)
        v = differentiate(p)
        assert np.all(v.values == 0.0)

    def test_uniform_translation(self):
        frame = motion.neutral_frame()
        pos = np.array([frame + np.array([0.0, 0.1 * t, 0.0]) for t in range(11)])
        v = differentiate(PoseSequence(pos, dt=0.1))
        assert np.allclose(v.values[1:, 0], [0.0, 1.0, 0.0])
        assert np.all(v.values[0] == 0.0)

    def test_round_trip_random_sequence(self):
        rng = np.random.default_rng(42)
        p = random_pose_sequence(rng, 1000)
        v = differentiate(p)
        back = integrate(p.positions[0], v)
        assert np.abs(back.positions - p.positions).max() < 1e-9

    def test_integrate_round_trip_other_direction(self):
        rng = np.random.default_rng(1)
        v = VelocitySequence(rng.normal(size=(200, 17, 3)), dt=0.1)
        p0 = rng.normal(size=(17, 3))
        p = integrate(p0, v)
        v2 = differentiate(p)
        assert np.abs(v2.values[1:] - v.values[1:]).max() < 1e-9

    def test_integrate_matches_cumsum_oracle(self):
        rng = np.random.default_rng(9)
        v = VelocitySequence(rng.normal(size=(64, 17, 3)), dt=0.05)
        p0 = rng.normal(size=(17, 3))
        p = integrate(p0, v)
        # independent oracle: direct cumulative sum
        expect = p0[None] + np.cumsum(v.values * v.dt, axis=0) - v.values[0] * v.dt
        assert np.abs(p.positions - expect).max() < 1e-12

    def test_integrate_constant_velocity_example(self):
        p0 = np.zeros((17, 3))
        vals = np.zeros((10, 17, 3))
        vals[:, 0, 0] = 1.0
        p = integrate(p0, VelocitySequence(vals, dt=0.1))
        # 9 applied steps of 0.1 m each (v[0] is unused by the update rule)
        assert np.isclose(p.positions[-1, 0, 0], 0.9)
        p = integrate(p0, VelocitySequence(np.zeros((10, 17, 3)), dt=0.1))
        assert np.all(p.positions == 0.0)

    def test_translation_invariance_of_velocities(self):
        rng = np.random.default_rng(3)
        p = random_pose_sequence(rng, 50)
        shifted = PoseSequence(p.positions + np.array([1.0, 2.0, 3.0]), p.dt)
        assert np.allclose(differentiate(p).values, differentiate(shifted).values)

    def test_rejects_single_frame(self):
        p = PoseSequence(np.zeros((1, 17, 3)), dt=0.1)
        with pytest.raises(ValueError):
            differentiate(p)

    def test_rejects_non_finite(self):
        v = VelocitySequence(np.zeros((5, 17, 3)), dt=0.1)
        bad = np.zeros((17, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            integrate(bad, v)


class TestBoneLengths:
    def test_all_zero_frame(self):
        assert np.all(bone_lengths(np.zeros((17, 3))) == 0.0)

    def test_rigid_translation_invariance(self):
        f = motion.neutral_frame()
        assert np.allclose(bone_lengths(f), bone_lengths(f + np.array([1.0, 2.0, 3.0])))

    def test_generated_walk_first_last_frame(self):
        p = generate_activity(ActivityKind.WPLUS, 5.0, seed=2)
        first = bone_lengths(p.positions[0])
        last = bone_lengths(p.positions[-1])
        assert np.abs(first - last).max() < 1e-6


def test_t_pose_stack_equals_one_by_one():
    rng = np.random.default_rng(4)
    xy, heading = rng.normal(size=(9, 2)), rng.uniform(0, 2 * np.pi, size=9)
    stack = motion.t_pose(xy, heading)
    assert stack.shape == (9, 17, 3)
    assert np.array_equal(stack, [motion.t_pose(xy[k], heading[k]) for k in range(9)])
    assert motion.t_pose(xy[:0], heading[:0]).shape == (0, 17, 3)
    assert motion.t_pose(xy[0], heading[0]).shape == (17, 3)


class TestPoseIO:
    def test_round_trip(self, tmp_path):
        p = generate_activity(ActivityKind.BR, 3.0, seed=5)
        path = tmp_path / "pose.dpc"
        p.save(path)
        back = PoseSequence.load(path)
        assert back.dt == p.dt
        assert np.array_equal(back.positions, p.positions.astype(np.float32).astype(np.float64))

    def test_file_bytes_idempotent(self, tmp_path):
        p = generate_activity(ActivityKind.HT, 2.0, seed=1)
        a, b = tmp_path / "a.dpc", tmp_path / "b.dpc"
        p.save(a)
        PoseSequence.load(a).save(b)
        assert a.read_bytes() == b.read_bytes()
