"""Synthetic 17-key-point skeletal motion and pose/velocity conversions.

Sequences are generated by parametric kinematic templates (sinusoidal gait,
keyframed sit/stand/pick/rotate) driven through a rigid forward-kinematics
skeleton, so bone lengths are constant to machine precision and every
activity is deterministic per seed. This is a stand-in for motion-capture
ground truth; no physics, no inverse kinematics.

Joint index convention, as `_fk` fills the (T, 17, 3) arrays (0-based):

    0  pelvis (root)   5  l_elbow    10 l_hip     15 r_ankle
    1  spine           6  l_wrist    11 l_knee    16 chest
    2  neck            7  r_shoulder 12 l_ankle
    3  head            8  r_elbow    13 r_hip
    4  l_shoulder      9  r_wrist    14 r_knee

The metric tables and CSVs of `harness` number the joints 1-17 (index + 1),
so their joint 1 is the pelvis, which the root-relative tables pin to zero.
The anatomical identity of the 17 points is this package's own choice, made
to give a connected torso/limb tree (`BONE_EDGES`); the paper fixes only the
count of 17 key points.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import containers

N_JOINTS = 17
DEFAULT_DT = 0.1  # seconds per frame (10 fps)

JOINT_NAMES = (
    "pelvis", "spine", "neck", "head",
    "l_shoulder", "l_elbow", "l_wrist",
    "r_shoulder", "r_elbow", "r_wrist",
    "l_hip", "l_knee", "l_ankle",
    "r_hip", "r_knee", "r_ankle",
    "chest",
)

# Skeleton tree: 16 edges over the 17 joints, used for bone-length checks.
BONE_EDGES = (
    (0, 1), (1, 16), (16, 2), (2, 3),
    (16, 4), (4, 5), (5, 6),
    (16, 7), (7, 8), (8, 9),
    (0, 10), (10, 11), (11, 12),
    (0, 13), (13, 14), (14, 15),
)

# Segment lengths in meters (adult-ish proportions).
_L = {
    "pelvis_spine": 0.15, "spine_chest": 0.15, "chest_neck": 0.12, "neck_head": 0.12,
    "shoulder_up": 0.05, "shoulder_out": 0.19,
    "upper_arm": 0.28, "forearm": 0.26,
    "hip_out": 0.09, "hip_down": 0.02,
    "thigh": 0.42, "shin": 0.40,
}

STAND_ROOT_Z = 0.92
_SIT = {"root_z": 0.55, "hip": 1.25, "knee": 1.25, "torso": 0.12}


class ActivityKind(enum.Enum):
    """Primitive activity templates; composites are built by chaining them."""

    WPLUS = "W+"    # walk toward the +y receiver direction
    WMINUS = "W-"   # turn, then walk away from the receiver
    TR = "TR"       # turn around in place
    SD = "SD"       # sit down (ends seated)
    SU = "SU"       # stand up (starts seated)
    HT = "HT"       # hitting / punching
    CV = "CV"       # crouch and cover
    PU = "PU"       # pick up from the floor
    BR = "BR"       # full body rotation


# Posture at the boundaries of each primitive; composites must chain
# compatibly (e.g. ... -> SD -> SU -> ... is legal, SD -> W+ is not).
_ENTRY_POSTURE = {k: "stand" for k in ActivityKind}
_ENTRY_POSTURE[ActivityKind.SU] = "sit"
_EXIT_POSTURE = {k: "stand" for k in ActivityKind}
_EXIT_POSTURE[ActivityKind.SD] = "sit"


@dataclass
class PoseSequence:
    """T frames of 17 x 3 joint positions (meters) at a fixed frame interval."""

    positions: np.ndarray  # (T, 17, 3) float64
    dt: float = DEFAULT_DT

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 3 or self.positions.shape[1:] != (N_JOINTS, 3):
            raise ValueError(f"positions must be (T, {N_JOINTS}, 3), got {self.positions.shape}")
        if len(self.positions) < 1:
            raise ValueError("a pose sequence needs at least one frame")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.positions).all():
            raise ValueError("pose positions must be finite")

    def __len__(self) -> int:
        return len(self.positions)

    def save(self, path: str | Path) -> None:
        containers.write_array(path, "pose", self.positions, dt=float(self.dt))

    @classmethod
    def load(cls, path: str | Path) -> "PoseSequence":
        return containers.read_array(path, "pose", lambda v, h: cls(v, float(h["dt"])))


@dataclass
class VelocitySequence:
    """T frames of 17 x 3 joint velocities (m/s); values[0] is defined as zero."""

    values: np.ndarray  # (T, 17, 3) float64
    dt: float = DEFAULT_DT

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3 or self.values.shape[1:] != (N_JOINTS, 3):
            raise ValueError(f"values must be (T, {N_JOINTS}, 3), got {self.values.shape}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.values).all():
            raise ValueError("velocities must be finite")

    def __len__(self) -> int:
        return len(self.values)


# ---------------------------------------------------------------------------
# Pose <-> velocity conversions
# ---------------------------------------------------------------------------

def differentiate(p: PoseSequence) -> VelocitySequence:
    """Backward-difference velocities: v[t] = (p[t] - p[t-1]) / dt, v[0] = 0."""
    if len(p) < 2:
        raise ValueError("differentiate needs at least two frames")
    v = np.zeros_like(p.positions)
    v[1:] = (p.positions[1:] - p.positions[:-1]) / p.dt
    return VelocitySequence(v, p.dt)


def integrate(p0: np.ndarray, v: VelocitySequence) -> PoseSequence:
    """Cumulative pose update p[t] = p[t-1] + v[t]*dt starting from p[0] = p0.

    v[0] is not used. One cumulative sum along time: numpy accumulates in
    sequence, so every frame is the per-frame update's sum, bit for bit.
    """
    p0 = np.asarray(p0, dtype=np.float64)
    if p0.shape != (N_JOINTS, 3):
        raise ValueError(f"p0 must be ({N_JOINTS}, 3), got {p0.shape}")
    if not np.isfinite(p0).all() or not np.isfinite(v.values).all():
        raise ValueError("integrate requires finite inputs")
    steps = v.values * v.dt
    steps[0] = p0
    return PoseSequence(np.cumsum(steps, axis=0), v.dt)


def bone_lengths(frame: np.ndarray) -> np.ndarray:
    """Euclidean lengths of the 16 skeleton edges for one 17 x 3 frame."""
    frame = np.asarray(frame, dtype=np.float64)
    if frame.shape != (N_JOINTS, 3):
        raise ValueError(f"frame must be ({N_JOINTS}, 3), got {frame.shape}")
    a = frame[[e[0] for e in BONE_EDGES]]
    b = frame[[e[1] for e in BONE_EDGES]]
    return np.linalg.norm(a - b, axis=1)


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------

def _fk(tracks: dict) -> np.ndarray:
    """Map the 15 state tracks of a builder ((T,) arrays or scalars) to (T, 17, 3).

    The tracks are the root `x`, `y`, `heading`, `root_z`, the `torso` lean,
    and per side (`_l`, `_r`) the `hip`, `knee`, `arm`, `elb` and `abd`
    angles. All limb directions are unit vectors scaled by fixed segment
    lengths, so bone lengths are constant across frames by construction.
    """
    shape = np.broadcast_shapes(*(np.shape(v) for v in tracks.values()))
    t_len = shape[0] if shape else 1
    angles = {k: np.broadcast_to(np.asarray(v, float), (t_len,)) for k, v in tracks.items()}
    x, y, heading, root_z, torso = (angles[k] for k in ("x", "y", "heading", "root_z", "torso"))

    fwd = np.stack([np.sin(heading), np.cos(heading), np.zeros(t_len)], axis=1)
    right = np.stack([np.cos(heading), -np.sin(heading), np.zeros(t_len)], axis=1)
    up = np.zeros((t_len, 3))
    up[:, 2] = 1.0

    out = np.empty((t_len, N_JOINTS, 3))
    pelvis = np.stack([x, y, root_z], axis=1)
    out[:, 0] = pelvis

    d_torso = up * np.cos(torso)[:, None] + fwd * np.sin(torso)[:, None]
    out[:, 1] = pelvis + _L["pelvis_spine"] * d_torso                     # spine
    out[:, 16] = out[:, 1] + _L["spine_chest"] * d_torso                  # chest
    out[:, 2] = out[:, 16] + _L["chest_neck"] * d_torso                   # neck
    out[:, 3] = out[:, 2] + _L["neck_head"] * d_torso                     # head

    for side, sign, sh, el, wr, hp, kn, an in (
        ("l", -1.0, 4, 5, 6, 10, 11, 12),
        ("r", +1.0, 7, 8, 9, 13, 14, 15),
    ):
        shoulder = out[:, 16] + _L["shoulder_up"] * d_torso + sign * _L["shoulder_out"] * right
        out[:, sh] = shoulder
        ap, ab, ef = angles[f"arm_{side}"], angles[f"abd_{side}"], angles[f"elb_{side}"]
        sag = lambda ang: (-up * np.cos(ang)[:, None] + fwd * np.sin(ang)[:, None])
        d_arm = np.cos(ab)[:, None] * sag(ap) + (sign * np.sin(ab))[:, None] * right
        out[:, el] = shoulder + _L["upper_arm"] * d_arm
        d_fore = np.cos(ab)[:, None] * sag(ap + ef) + (sign * np.sin(ab))[:, None] * right
        out[:, wr] = out[:, el] + _L["forearm"] * d_fore

        hip = pelvis + sign * _L["hip_out"] * right - _L["hip_down"] * up
        out[:, hp] = hip
        h_ang, k_ang = angles[f"hip_{side}"], angles[f"knee_{side}"]
        d_thigh = -up * np.cos(h_ang)[:, None] + fwd * np.sin(h_ang)[:, None]
        out[:, kn] = hip + _L["thigh"] * d_thigh
        d_shin = -up * np.cos(h_ang - k_ang)[:, None] + fwd * np.sin(h_ang - k_ang)[:, None]
        out[:, an] = out[:, kn] + _L["shin"] * d_shin

    return out


def _standing_frame(xy, heading, abduction: float) -> np.ndarray:
    """One (17, 3) frame at xy (2,) and a scalar heading; (n, 17, 3) at (n, 2) and (n,)."""
    xy = np.asarray(xy, dtype=float)
    frames = _fk(dict(x=xy[..., 0], y=xy[..., 1], heading=heading, root_z=STAND_ROOT_Z,
                      torso=0.0, hip_l=0.0, hip_r=0.0, knee_l=0.0, knee_r=0.0, arm_l=0.0,
                      arm_r=0.0, elb_l=0.0, elb_r=0.0, abd_l=abduction, abd_r=abduction))
    return frames[0] if xy.ndim == 1 and np.ndim(heading) == 0 else frames


def neutral_frame(xy=(0.0, 0.0), heading: float = 0.0) -> np.ndarray:
    """Standing rest pose (arms down) at the given root position/heading."""
    return _standing_frame(xy, heading, 0.0)


def t_pose(xy=(0.0, 0.0), heading: float = 0.0) -> np.ndarray:
    """Universal initialisation pose: standing with arms out horizontally.

    (17, 3); given n roots xy (n, 2) and headings (n,), the (n, 17, 3) poses.
    """
    return _standing_frame(xy, heading, np.pi / 2)


# ---------------------------------------------------------------------------
# Activity templates
# ---------------------------------------------------------------------------

def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _ramp_in_out(t, duration, ramp):
    """0 -> 1 over [0, ramp], 1 in the middle, 1 -> 0 over the final ramp."""
    return _smoothstep(t / ramp) * _smoothstep((duration - t) / ramp)


@dataclass
class _ChainState:
    """Where one segment leaves the root and the next one starts it."""

    xy: np.ndarray
    heading: float = 0.0


def _integrate_planar(speed_track, heading, dt):
    """Integrate a forward-speed track along the (possibly turning) heading."""
    vx = speed_track * np.sin(heading)
    vy = speed_track * np.cos(heading)
    x = np.concatenate([[0.0], np.cumsum(vx[1:] * dt)])
    y = np.concatenate([[0.0], np.cumsum(vy[1:] * dt)])
    return x, y


def _gait_angles(t, env, rng, amp_scale=1.0):
    f_g = rng.uniform(0.75, 0.95)
    phi0 = rng.uniform(0.0, 2.0 * np.pi)
    a_hip = amp_scale * rng.uniform(0.26, 0.32)
    a_knee = amp_scale * rng.uniform(0.28, 0.36)
    a_arm = 0.5 * a_hip
    phase = 2.0 * np.pi * f_g * t + phi0
    hip_l = a_hip * env * np.sin(phase)
    hip_r = -hip_l
    knee_l = a_knee * env * (0.5 + 0.5 * np.sin(phase + 0.5)) ** 2
    knee_r = a_knee * env * (0.5 + 0.5 * np.sin(phase + np.pi + 0.5)) ** 2
    arm_l = -a_arm * env * np.sin(phase)
    arm_r = a_arm * env * np.sin(phase)
    bob = 0.018 * env * np.sin(2.0 * phase)
    return hip_l, hip_r, knee_l, knee_r, arm_l, arm_r, bob, phase


def _tracks_walk(t, duration, rng, state, away):
    env = _ramp_in_out(t, duration, 0.7)
    speed = rng.uniform(0.8, 1.35)
    hip_l, hip_r, knee_l, knee_r, arm_l, arm_r, bob, phase = _gait_angles(t, env, rng)
    if away:
        turn_T = min(1.2, duration / 3.0)
        heading = state.heading + np.pi * _smoothstep(t / turn_T)
    else:
        heading = np.full_like(t, state.heading)
    x, y = _integrate_planar(speed * env, heading, t[1] - t[0] if len(t) > 1 else DEFAULT_DT)
    sway = 0.015 * env * np.sin(phase)
    x = x + state.xy[0] + sway * np.cos(heading)
    y = y + state.xy[1] - sway * np.sin(heading)
    return dict(x=x, y=y, heading=heading, root_z=STAND_ROOT_Z + bob, torso=0.05 * env,
                hip_l=hip_l, hip_r=hip_r, knee_l=knee_l, knee_r=knee_r,
                arm_l=arm_l, arm_r=arm_r, elb_l=0.15 * env, elb_r=0.15 * env,
                abd_l=0.0, abd_r=0.0)


def _tracks_turn(t, duration, rng, state):
    env = _ramp_in_out(t, duration, 0.7)
    heading = state.heading + np.pi * _smoothstep((t - 0.4) / max(duration - 0.8, 0.5))
    hip_l, hip_r, knee_l, knee_r, arm_l, arm_r, bob, _ = _gait_angles(t, env, rng, amp_scale=0.4)
    return dict(x=state.xy[0], y=state.xy[1], heading=heading,
                root_z=STAND_ROOT_Z + 0.5 * bob, torso=0.03 * env,
                hip_l=hip_l, hip_r=hip_r, knee_l=knee_l, knee_r=knee_r,
                arm_l=arm_l, arm_r=arm_r, elb_l=0.1 * env, elb_r=0.1 * env,
                abd_l=0.0, abd_r=0.0)


def _tracks_sit_stand(t, duration, rng, state, standing_up):
    hold = rng.uniform(0.3, 0.5)
    prog = _smoothstep((t - hold) / max(duration - 2.0 * hold, 1.0))
    if standing_up:
        prog = 1.0 - prog
    lean = 0.28 * np.sin(np.pi * prog)
    arms = 0.35 * np.sin(np.pi * prog)
    return dict(x=state.xy[0], y=state.xy[1], heading=state.heading,
                root_z=STAND_ROOT_Z - (STAND_ROOT_Z - _SIT["root_z"]) * prog,
                torso=_SIT["torso"] * prog + lean,
                hip_l=_SIT["hip"] * prog, hip_r=_SIT["hip"] * prog,
                knee_l=_SIT["knee"] * prog, knee_r=_SIT["knee"] * prog,
                arm_l=arms, arm_r=arms, elb_l=0.3 * prog, elb_r=0.3 * prog,
                abd_l=0.0, abd_r=0.0)


def _tracks_hit(t, duration, rng, state):
    env = _ramp_in_out(t, duration, 0.8)
    f_h = rng.uniform(0.45, 0.6)
    pulse = (0.5 + 0.5 * np.sin(2.0 * np.pi * f_h * t + rng.uniform(0, 2 * np.pi))) ** 2
    return dict(x=state.xy[0], y=state.xy[1], heading=state.heading,
                root_z=STAND_ROOT_Z, torso=0.1 * env * pulse,
                hip_l=0.0, hip_r=0.0, knee_l=0.06 * env, knee_r=0.06 * env,
                arm_l=0.5 * env, arm_r=0.9 * env * pulse + 0.2 * env,
                elb_l=1.0 * env, elb_r=1.0 * env * (1.0 - pulse),
                abd_l=0.1 * env, abd_r=0.1 * env)


def _tracks_cover(t, duration, rng, state):
    ramp = rng.uniform(1.1, 1.4)
    prog = _smoothstep((t - 0.3) / ramp) * _smoothstep((duration - 0.3 - t) / ramp)
    return dict(x=state.xy[0], y=state.xy[1], heading=state.heading,
                root_z=STAND_ROOT_Z - 0.28 * prog, torso=0.3 * prog,
                hip_l=0.8 * prog, hip_r=0.8 * prog,
                knee_l=0.9 * prog, knee_r=0.9 * prog,
                arm_l=2.4 * prog, arm_r=2.4 * prog,
                elb_l=0.9 * prog, elb_r=0.9 * prog,
                abd_l=0.3 * prog, abd_r=0.3 * prog)


def _tracks_pickup(t, duration, rng, state):
    depth = rng.uniform(0.9, 1.1)
    prog = np.sin(np.pi * np.clip(t / duration, 0, 1)) ** 2
    return dict(x=state.xy[0], y=state.xy[1], heading=state.heading,
                root_z=STAND_ROOT_Z - 0.22 * depth * prog, torso=1.05 * depth * prog,
                hip_l=0.5 * prog, hip_r=0.5 * prog,
                knee_l=0.55 * prog, knee_r=0.55 * prog,
                arm_l=0.35 * prog, arm_r=0.35 * prog,
                elb_l=0.1 * prog, elb_r=0.1 * prog,
                abd_l=0.0, abd_r=0.0)


def _tracks_rotate(t, duration, rng, state):
    env = _ramp_in_out(t, duration, 0.7)
    heading = state.heading + 2.0 * np.pi * _smoothstep((t - 0.4) / max(duration - 0.8, 0.5))
    hip_l, hip_r, knee_l, knee_r, _, _, bob, _ = _gait_angles(t, env, rng, amp_scale=0.3)
    return dict(x=state.xy[0], y=state.xy[1], heading=heading,
                root_z=STAND_ROOT_Z + 0.5 * bob, torso=0.0,
                hip_l=hip_l, hip_r=hip_r, knee_l=knee_l, knee_r=knee_r,
                arm_l=0.15 * env, arm_r=0.15 * env, elb_l=0.2 * env, elb_r=0.2 * env,
                abd_l=0.35 * env, abd_r=0.35 * env)


_TRACK_BUILDERS = {
    ActivityKind.WPLUS: lambda t, d, r, s: _tracks_walk(t, d, r, s, away=False),
    ActivityKind.WMINUS: lambda t, d, r, s: _tracks_walk(t, d, r, s, away=True),
    ActivityKind.TR: _tracks_turn,
    ActivityKind.SD: lambda t, d, r, s: _tracks_sit_stand(t, d, r, s, standing_up=False),
    ActivityKind.SU: lambda t, d, r, s: _tracks_sit_stand(t, d, r, s, standing_up=True),
    ActivityKind.HT: _tracks_hit,
    ActivityKind.CV: _tracks_cover,
    ActivityKind.PU: _tracks_pickup,
    ActivityKind.BR: _tracks_rotate,
}


def _generate_segment(kind: ActivityKind, duration: float, rng, state: _ChainState,
                      dt: float) -> tuple[np.ndarray, _ChainState]:
    t = np.arange(int(round(duration / dt))) * dt
    tracks = _TRACK_BUILDERS[kind](t, duration, rng, state)
    positions = _fk(tracks)
    exit_state = _ChainState(xy=positions[-1, 0, :2].copy(),
                             heading=float(np.ravel(tracks["heading"])[-1]) % (2.0 * np.pi))
    return positions, exit_state


def check_duration(duration: float) -> float:
    """The duration of one activity as a float; it must lie in [2, 60] seconds."""
    duration = float(duration)
    if not 2.0 <= duration <= 60.0:
        raise ValueError(f"duration must be in [2, 60] s, got {duration}")
    return duration


def generate_activity(kind: ActivityKind, duration: float, seed: int, *,
                      dt: float = DEFAULT_DT, start_xy=(0.0, 0.0)) -> PoseSequence:
    """Generate one primitive activity: the one-segment composite.

    duration must lie in [2, 60] seconds. The same (kind, duration, seed)
    always yields the identical sequence.
    """
    return generate_composite([kind], duration, seed, dt=dt, start_xy=start_xy)


def generate_composite(kinds, duration_each: float, seed: int, *,
                       dt: float = DEFAULT_DT, start_xy=(0.0, 0.0)) -> PoseSequence:
    """Chain primitives of duration_each seconds into one continuous sequence.

    Root position and heading carry across segments, starting at start_xy
    facing +y. Every kind must be an ActivityKind, duration_each must lie in
    [2, 60] seconds, and boundary postures must be compatible (only SD may
    precede SU, SU may not follow a standing exit, etc.), or a ValueError is
    raised before anything is generated.
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("composite needs at least one activity")
    for kind in kinds:
        if not isinstance(kind, ActivityKind):
            raise ValueError(f"unknown activity kind: {kind!r}")
    check_duration(duration_each)
    for prev, kind in zip(kinds, kinds[1:]):
        if _ENTRY_POSTURE[kind] != _EXIT_POSTURE[prev]:
            raise ValueError(
                f"{kind.value} starts from a {_ENTRY_POSTURE[kind]!r} posture but the "
                f"previous segment ended {_EXIT_POSTURE[prev]!r}"
            )
    rng = np.random.default_rng(seed)
    state = _ChainState(xy=np.asarray(start_xy, dtype=float))
    chunks = []
    for kind in kinds:
        positions, state = _generate_segment(kind, duration_each, rng, state, dt)
        chunks.append(positions)
    return PoseSequence(np.concatenate(chunks, axis=0), dt)
