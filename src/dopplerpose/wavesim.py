"""Bistatic passive-radar baseband synthesis for a moving point-scatterer body.

The surveillance channel is modeled as the sum of four terms: per-joint
target returns with time-varying bistatic delay (whose carrier-phase rotation
produces the micro-Doppler), single-bounce multipath ghosts via mirrored
joint images, direct-signal interference, and static clutter returns, plus a
white noise floor, one draw for its real and imaginary parts. The reference
channel is a delayed, scaled copy of the transmitted waveform.
`synthesize_surveillance` renders one scene: it returns the target returns
alone (the clean channel) and their sum with the other terms (the full
channel), so the joint tracks are interpolated and the targets rendered once
for both.

Amplitudes follow a two-leg free-space law weight / (R_tx * R_rx) with a
configurable path-loss exponent. Every path of a scene is far shorter than
c / fs (18.7 km at 16 kHz): its delay d = tau*fs is under one sample, the
waveform at t - tau is the two-tap blend (1 - d)*u[m] + d*u[m-1] (u[-1] = 0),
and `_check_sub_sample` rejects a longer path rather than render it wrong.
The static paths (reference, DSI, clutter) sum their taps into one filter.

Moving scatterers are summed in one pass over all joints:
- Delay. The blend u[n] - tau*fs * (u[n] - u[n-1]) is linear in the delay:
  the weighted phasors are summed over joints with and without the tau*fs
  factor and blended with u once.
- Phase. Delay and amplitude are linear between the 500 Hz coarse knots, so
  at sample offset m inside a knot segment they are g0 + m*gd and a0 + m*ad,
  and the carrier phasor exp(-j 2 pi f_c tau) is exp(rot*g0) * r**m with
  r = exp(rot*gd), built by doubling (r, r**2, r**4, ...) from an exact exp
  in every segment: log2(segment length) whole-block steps, where a
  cumulative product along the short sample axis takes one per sample. The
  joint sums are then polynomials in m whose five coefficients (weights a0,
  ad, a0*g0, a0*gd + ad*g0, ad*gd) come from one batched real matmul of the
  phasors with the weights.
- Blocking. Segments are processed a block of about `_BLOCK` samples at a
  time (64 segments at 16 kHz), all joints at once, so the (samples x
  segments x joints) work arrays stay a few hundred kB: a whole-signal
  (samples x joints) complex array would be tens of MB and would raise the
  peak memory of every dataset build. The work buffers are made once per
  call and every block reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import containers
from .motion import N_JOINTS, PoseSequence

C_LIGHT = 299792458.0

# Ranges below this are clamped in the amplitude law so scatterers brushing
# an antenna cannot blow up the synthesis.
_MIN_RANGE = 0.5

# Torso-heavy reflectivity profile over the 17 joints (pelvis..chest order
# from dopplerpose.motion.JOINT_NAMES). Limb weights are kept high enough
# that swing-phase micro-Doppler stays above the processed noise floor.
DEFAULT_JOINT_WEIGHTS = np.array([
    1.00, 0.90, 0.55, 0.60,
    0.55, 0.50, 0.45,
    0.55, 0.50, 0.45,
    0.60, 0.55, 0.50,
    0.60, 0.55, 0.50,
    0.95,
])


def _vector3(name: str, v) -> np.ndarray:
    """v as a float64 3-vector; anything else, or a non-finite entry, is a ValueError."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,) or not np.isfinite(v).all():
        raise ValueError(f"{name} must be a finite 3-vector, got {v.tolist()}")
    return v


def _check_level(name: str, value: float) -> None:
    """An amplitude, floor or exponent: finite and >= 0, so NaN is rejected too."""
    if not 0.0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass
class Geometry:
    """Transmitter / receiver placement and carrier for one bistatic scene."""

    tx_pos: np.ndarray
    rx_sur_pos: np.ndarray
    rx_ref_pos: np.ndarray
    carrier_hz: float = 5.8e9

    def __post_init__(self):
        self.tx_pos = _vector3("tx_pos", self.tx_pos)
        self.rx_sur_pos = _vector3("rx_sur_pos", self.rx_sur_pos)
        self.rx_ref_pos = _vector3("rx_ref_pos", self.rx_ref_pos)
        if not 0 < self.carrier_hz < np.inf:
            raise ValueError(f"carrier_hz must be positive and finite, got {self.carrier_hz}")


@dataclass
class BasebandSignal:
    """Complex sampled baseband for one channel; its first sample is at time 0."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.complex128)
        if not 0 < self.sample_rate_hz < np.inf:
            raise ValueError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz}")
        if not np.isfinite(self.samples.view(np.float64)).all():
            raise ValueError("signal samples must be finite")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate_hz

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) / self.sample_rate_hz

    def save(self, path: str | Path) -> None:
        containers.write_array(path, "signal", self.samples,
                               sample_rate_hz=float(self.sample_rate_hz))

    @classmethod
    def load(cls, path: str | Path) -> "BasebandSignal":
        """The signal `save` wrote; the start time that older files carry is ignored."""
        return containers.read_array(path, "signal", lambda v, h: cls(
            v, containers.number(h, "sample_rate_hz")))


@dataclass
class ScattererModel:
    """Per-joint reflectivity weights and the bistatic spreading law."""

    joint_weights: np.ndarray = field(default_factory=lambda: DEFAULT_JOINT_WEIGHTS.copy())
    path_loss_exponent: float = 2.0

    def __post_init__(self):
        self.joint_weights = np.asarray(self.joint_weights, dtype=np.float64)
        if self.joint_weights.shape != (N_JOINTS,):
            raise ValueError(f"joint_weights must have shape ({N_JOINTS},)")
        if not ((self.joint_weights >= 0) & np.isfinite(self.joint_weights)).all():
            raise ValueError("joint weights must be finite and non-negative")
        _check_level("path_loss_exponent", self.path_loss_exponent)


@dataclass
class MirrorPlane:
    """Single-bounce multipath surface: a plane through `point` with `normal`."""

    point: np.ndarray
    normal: np.ndarray
    amplitude: float = 0.0

    def __post_init__(self):
        self.point = _vector3("point", self.point)
        self.normal = _vector3("normal", self.normal)
        n = np.linalg.norm(self.normal)
        if n < 1e-12:
            raise ValueError("mirror plane normal must be nonzero")
        self.normal = self.normal / n
        _check_level("amplitude", self.amplitude)

    def reflect(self, points: np.ndarray) -> np.ndarray:
        d = (points - self.point) @ self.normal
        return points - 2.0 * d[..., None] * self.normal


@dataclass
class Clutter:
    """One static point reflector."""

    position: np.ndarray
    amplitude: float

    def __post_init__(self):
        self.position = _vector3("position", self.position)
        _check_level("amplitude", self.amplitude)


@dataclass
class InterferenceConfig:
    """Everything in the surveillance channel that is not a live target."""

    dsi_amplitude: float = 0.0
    clutter: list = field(default_factory=list)
    multipath: list = field(default_factory=list)
    noise_floor: float = 0.0

    def __post_init__(self):
        _check_level("dsi_amplitude", self.dsi_amplitude)
        _check_level("noise_floor", self.noise_floor)


def _path_amp(ranges: np.ndarray, exponent: float) -> np.ndarray:
    return np.maximum(ranges, _MIN_RANGE) ** (-exponent / 2.0)


def _check_sub_sample(path: str, delay: float, fs: float) -> None:
    """Every path is rendered as a blend of two adjacent samples: a delay of
    one sample or more (a path of c/fs) is a ValueError naming `path`."""
    if delay >= 1.0:
        raise ValueError(
            f"{path} of {delay * C_LIGHT / fs:.1f} m delays the return by {delay:.3g} "
            f"samples at {fs:g} Hz; the sub-sample delay model needs paths shorter than "
            f"c/fs = {C_LIGHT / fs:.1f} m")


def _static_path(path: str, length: float, amp: float, fs: float, g: Geometry):
    """The (gain, tau) of a static path `length` m long, checked to be sub-sample."""
    tau = length / C_LIGHT
    _check_sub_sample(path, tau * fs, fs)
    return amp * np.exp(-2j * np.pi * g.carrier_hz * tau), tau


def _static_paths(u: BasebandSignal, paths) -> np.ndarray:
    """The sum of gain * u(t - tau) over sub-sample (gain, tau) paths: each is
    the blend gain * ((1 - d) u[m] + d u[m - 1]), d = tau * fs, with u[-1]
    taken as 0, so only the zero-delay paths have arrived at sample 0. The
    taps of all paths sum into one two-tap filter.
    """
    x = u.samples
    taps = np.zeros(3, dtype=np.complex128)  # on u[m - 1] and u[m]; gain arrived at sample 0
    for gain, tau in paths:
        d = tau * u.sample_rate_hz
        taps += (gain * d, gain * (1.0 - d), gain if d == 0.0 else 0.0)
    out = np.zeros(len(x), dtype=np.complex128)
    if len(x) > 1:  # sliding_window_view needs both taps' samples
        np.matmul(sliding_window_view(x, 2), taps[:2], out=out[1:])
    out[:1] += taps[2] * x[:1]
    return out


def generate_waveform(bandwidth_hz: float, duration_s: float, sample_rate_hz: float,
                      seed: int) -> BasebandSignal:
    """Pseudorandom constant-modulus waveform, flat over +-bandwidth/2.

    Built as phase-continuous random frequency hops: the instantaneous
    frequency is redrawn uniformly inside the band every 8 * fs / bandwidth
    samples, which keeps |u(t)| = 1 exactly while filling the band. A hop
    that long keeps each burst much narrower than the band.

    The CAF reads the channels at zero lag only, where |u|^2 = 1: with every
    path sub-sample, the waveform cancels from each product sur * conj(ref)
    up to the delay blend's u[m - 1] term, so the band and the hops reach a
    spectrogram only through that small term.
    """
    if not 0 < bandwidth_hz <= sample_rate_hz:
        raise ValueError(
            f"bandwidth ({bandwidth_hz:g} Hz) must be positive and not exceed the "
            f"sample rate ({sample_rate_hz:g} Hz)")
    if not duration_s > 0:
        raise ValueError("duration must be positive")
    hop_samples = max(1, int(round(8.0 * sample_rate_hz / bandwidth_hz)))
    n = int(round(duration_s * sample_rate_hz))
    rng = np.random.default_rng(seed)
    n_hops = n // hop_samples + 1
    freqs = rng.uniform(-bandwidth_hz / 2.0, bandwidth_hz / 2.0, size=n_hops)
    f_inst = np.repeat(freqs, hop_samples)[:n]
    phase = 2.0 * np.pi * np.cumsum(f_inst) / sample_rate_hz
    phase += rng.uniform(0.0, 2.0 * np.pi)
    samples = np.empty(n, dtype=np.complex128)  # exp(1j * phase), with no complex temporary
    np.cos(phase, out=samples.real)
    np.sin(phase, out=samples.imag)
    return BasebandSignal(samples, sample_rate_hz)


def synthesize_reference(u: BasebandSignal, g: Geometry) -> BasebandSignal:
    """Reference channel: path-loss-scaled copy of u delayed by the tx->ref leg."""
    r = np.linalg.norm(g.tx_pos - g.rx_ref_pos)
    amp = _path_amp(np.array([r]), 2.0)[0] if r > 0 else 1.0
    path = _static_path("the reference path", r, amp, u.sample_rate_hz, g)
    return BasebandSignal(_static_paths(u, [path]), u.sample_rate_hz)


def _ranges(x: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Distances of (..., 3) points from one point: bit-identical to
    `np.linalg.norm(x - point, axis=-1)`, whose sum of squares adds in this
    order, without its strided reduction over the 3-long last axis."""
    d = x - point
    d *= d
    return np.sqrt(d[..., 0] + d[..., 1] + d[..., 2])


# Samples per block of the moving-scatterer synthesis (see the module notes).
_BLOCK = 2048


def _target_returns(u: BasebandSignal, coarse_t: np.ndarray, positions: np.ndarray,
                    weights: np.ndarray, exponent: float, g: Geometry) -> np.ndarray:
    """Sum of delayed, phase-rotated returns for (T_coarse, J, 3) scatterer tracks.

    Delay and amplitude are evaluated on the coarse grid and linearly
    interpolated to sample times; body accelerations bound the resulting
    carrier-phase error far below one Doppler bin.
    """
    keep = weights != 0.0
    x = positions[:, keep, :]
    fs = u.sample_rate_hz
    n = len(u)
    total = np.zeros(n, dtype=np.complex128)
    if x.shape[1] == 0 or n < 2:
        return total
    r1 = _ranges(x, g.tx_pos)
    r2 = _ranges(x, g.rx_sur_pos)
    delay = (r1 + r2) * (fs / C_LIGHT)  # samples
    _check_sub_sample(f"a target path from tx {g.tx_pos.tolist()} to rx "
                      f"{g.rx_sur_pos.tolist()}", delay.max(), fs)
    amp = weights[keep] * _path_amp(r1, exponent) * _path_amp(r2, exponent)
    # The block loop is an activity's peak memory: drop what it does not read.
    del x, r1, r2

    # Knot segment k holds samples first[k]:first[k + 1]; the last one runs to n.
    # A knot spacing is never shorter than 1 / fs (see `_coarse_grid`), so no
    # segment is empty.
    first = np.append(np.searchsorted(u.times(), coarse_t[:-1], side="left"), n)
    longest = int(np.diff(first).max())
    per_block = max(1, _BLOCK // longest)
    rot = -2j * np.pi * g.carrier_hz / fs  # phase per sample of delay
    us = u.samples
    # Work buffers of the largest block, made once; a block uses their leading
    # rows. The weights' off-diagonal blocks stay zero.
    phasors = np.empty((longest, per_block, delay.shape[1]), dtype=np.complex128)
    blocks = np.zeros((per_block, delay.shape[1], 2, 5, 2))
    coeffs = np.empty((per_block, longest, 10))
    for k0 in range(0, len(coarse_t) - 1, per_block):
        k1 = min(k0 + per_block, len(coarse_t) - 1)
        i0, i1 = first[k0], first[k1]
        count = np.diff(first[k0:k1 + 1])
        m = np.arange(count.max(), dtype=np.float64)
        # Delay and amplitude at a segment's first sample and their change per
        # sample, (segments, joints).
        seg_len = coarse_t[k0 + 1:k1 + 1] - coarse_t[k0:k1]
        frac = (first[k0:k1] / fs - coarse_t[k0:k1]) / seg_len
        rise_d = delay[k0 + 1:k1 + 1] - delay[k0:k1]
        rise_a = amp[k0 + 1:k1 + 1] - amp[k0:k1]
        g0 = delay[k0:k1] + frac[:, None] * rise_d
        a0 = amp[k0:k1] + frac[:, None] * rise_a
        gd = rise_d / (seg_len * fs)[:, None]
        ad = rise_a / (seg_len * fs)[:, None]
        # Carrier phasor exp(rot * (g0 + m gd)) = exp(rot g0) * r**m, samples
        # first, by doubling: rows m < f times r**f fill rows f..2f - 1.
        phasor = phasors[:len(m), :len(g0)]
        phasor[0] = np.exp(rot * g0)
        r = np.exp(rot * gd)
        done = 1
        while done < len(m):
            take = min(done, len(m) - done)
            np.multiply(phasor[:take], r, out=phasor[done:done + take])
            done += take
            r *= r
        # Joint sums of a*phasor and a*tau*phasor as polynomials in m: the
        # buffer viewed as (segment, sample, joint x re/im) reals, times
        # block-diagonal weights (joint x re/im, coefficient x re/im) that
        # sum the real and imaginary parts alike.
        w = blocks[:len(g0)]
        w[:, :, 0, :, 0] = w[:, :, 1, :, 1] = np.stack(
            [a0, ad, a0 * g0, a0 * gd + ad * g0, ad * gd], axis=2)
        c = np.matmul(phasor.view(np.float64).transpose(1, 0, 2), w.reshape(len(w), -1, 10),
                      out=coeffs[:len(w), :len(m)]).view(np.complex128)
        s0 = c[..., 0] + m * c[..., 1]
        s1 = c[..., 2] + m * (c[..., 3] + m * c[..., 4])
        inside = m < count[:, None]
        s0, s1 = s0[inside], s1[inside]
        # sum_j a*phasor*(u[n] - tau*(u[n] - u[n-1])), u[-1] taken as 0
        total[i0:i1] = (s0 - s1) * us[i0:i1]
        total[i0 + 1:i1] += s1[1:] * us[i0:i1 - 1]
        if i0 > 0:
            total[i0] += s1[0] * us[i0 - 1]
    # Every path has a positive delay: nothing has arrived at the first sample.
    total[0] = 0.0
    return total


_COARSE_RATE_HZ = 500.0


def _coarse_grid(u: BasebandSignal) -> np.ndarray:
    n = min(len(u), max(2, int(np.ceil(u.duration * _COARSE_RATE_HZ)) + 1))
    return np.linspace(0.0, u.duration, n)


def _joint_tracks(p: PoseSequence, times: np.ndarray) -> np.ndarray:
    """Linear interpolation of the pose onto the given times (ends clamped)."""
    pos = p.positions.reshape(len(p), -1)
    step = np.diff(pos, axis=0, append=pos[-1:])  # the last frame holds
    x = np.clip(times / p.dt, 0.0, len(p) - 1)  # fractional frame index
    k = x.astype(np.int64)
    out = pos[k]
    # in place: fresh whole-track temporaries cost more than the arithmetic
    blend = step[k]
    blend *= (x - k)[:, None]
    out += blend
    return out.reshape(len(times), N_JOINTS, 3)


def _coarse_tracks(u: BasebandSignal, p: PoseSequence):
    """The coarse time grid and the joint tracks on it; the pose must cover u."""
    if u.duration > len(p) * p.dt + 1e-9:
        raise ValueError(
            f"pose covers {len(p) * p.dt:.3f} s but the signal lasts {u.duration:.3f} s")
    coarse_t = _coarse_grid(u)
    return coarse_t, _joint_tracks(p, coarse_t)


def synthesize_surveillance(u: BasebandSignal, p: PoseSequence, sc: ScattererModel, g: Geometry,
                            ic: InterferenceConfig,
                            noise_seed) -> tuple[BasebandSignal, BasebandSignal]:
    """The surveillance channel of one scene, as (targets, full) signals.

    `targets` holds the live-target returns alone; `full` adds multipath,
    DSI, clutter and noise from `ic` to them, the noise drawn from
    `noise_seed`. With an empty `ic` the two are equal. A static path of a
    sample or more is rejected before anything is rendered.
    """
    fs = u.sample_rate_hz
    paths = []  # (gain, tau) of DSI and the clutter reflectors
    if ic.dsi_amplitude > 0:
        paths.append(_static_path("the direct path", np.linalg.norm(g.tx_pos - g.rx_sur_pos),
                                  ic.dsi_amplitude, fs, g))
    for i, cl in enumerate(ic.clutter):
        r1 = np.linalg.norm(cl.position - g.tx_pos)
        r2 = np.linalg.norm(cl.position - g.rx_sur_pos)
        amp = cl.amplitude * float(_path_amp(np.array([r1, r2]), sc.path_loss_exponent).prod())
        paths.append(_static_path(f"the path via clutter {i}", r1 + r2, amp, fs, g))

    coarse_t, tracks = _coarse_tracks(u, p)
    targets = _target_returns(u, coarse_t, tracks, sc.joint_weights,
                              sc.path_loss_exponent, g)
    # The mirror returns are rendered first and become the full channel: their
    # block loop is the scene's memory peak, and no other whole-signal array of
    # the full channel is alive while it runs.
    if ic.multipath:
        images = np.concatenate([plane.reflect(tracks) for plane in ic.multipath], axis=1)
        weights = np.concatenate([plane.amplitude * sc.joint_weights
                                  for plane in ic.multipath])
        total = _target_returns(u, coarse_t, images, weights, sc.path_loss_exponent, g)
        total += targets
    else:
        total = targets.copy()
    total += _static_paths(u, paths)

    if ic.noise_floor > 0:
        # one draw, the bits of a `normal` draw for the real part then one for the imaginary
        noise = np.random.default_rng(noise_seed).standard_normal((2, len(u)))
        noise *= ic.noise_floor / np.sqrt(2.0)
        total.real += noise[0]
        total.imag += noise[1]

    return BasebandSignal(targets, u.sample_rate_hz), BasebandSignal(total, u.sample_rate_hz)


def bistatic_doppler(g: Geometry, x: np.ndarray, v: np.ndarray) -> float:
    """Instantaneous Doppler of a scatterer at x moving with velocity v.

    f = -(carrier / c) * d/dt (|tx - x| + |x - rx_sur|); a shrinking bistatic
    path gives positive Doppler.
    """
    x = np.asarray(x, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    d_tx = x - g.tx_pos
    d_rx = x - g.rx_sur_pos
    r1 = np.linalg.norm(d_tx)
    r2 = np.linalg.norm(d_rx)
    if r1 < 1e-9 or r2 < 1e-9:
        raise ValueError("scatterer coincides with an antenna: Doppler is singular")
    rate = d_tx @ v / r1 + d_rx @ v / r2
    return float(-(g.carrier_hz / C_LIGHT) * rate)
