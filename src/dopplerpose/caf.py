"""Zero-lag cross-ambiguity maps, CLEAN cancellation of the direct signal,
and micro-Doppler spectrogram assembly.

Every map is the zero-lag cut of the cross-ambiguity function: one row over
Doppler. Range resolution at WiFi bandwidths cannot separate body parts, and
every path of a room-scale scene is far shorter than one sample (c/fs is
18.7 km at 16 kHz; `wavesim` rejects a target path of a sample or more), so
the target returns and the direct signal that CLEAN cancels all sit at lag 0.

The CAF keeps only the Doppler bins within the configured half-span, so it
evaluates those bins and no others (FFT pruning): a two-stage DFT of the
products sur(t) * conj(ref(t)) over t = p*n1 + q, with n = n1*n2 and n1 the
largest divisor of n at most sqrt(n). The first stage is one matmul of the
(n1, n2) rows of products with a (n2, K) table of exp(-j 2 pi k p n1 / N),
the second multiplies by (n1, K) twiddles exp(-j 2 pi k q / N) and sums over
q, where N = n * doppler_oversample and K is the number of kept bins. Phase
indices are reduced mod N in integers before the exp, and the tables and
axis come from one cached plan per CPI shape. The result is the direct sum
at every Doppler bin (to rounding).

Cost: n*K complex multiply-adds, against about N log2 N for a zero-padded
FFT of all N bins, so the pruned form pays off only while K is small.
Measured on a 1,600-sample CPI with oversample 4 (one BLAS thread, 2-vCPU
x86 VM): the configured 100 Hz half-span of 16 kHz keeps 81 bins and takes
65 us against 139 us for the FFT; the two break even near 320 bins (a 400 Hz
half-span), and at the full band (6,399 bins) the FFT is ten times faster.
Every caller here runs the configured span, so there is no FFT path.

The spectrogram step keeps each map's Doppler magnitudes, one column per
coherent processing interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from pathlib import Path

import numpy as np

from . import containers
from .wavesim import BasebandSignal


@dataclass
class CafMap:
    """Zero-lag complex ambiguity over Doppler for one CPI."""

    grid: np.ndarray          # (1, doppler_bins) complex: the zero-lag row
    doppler_axis: np.ndarray  # hertz, strictly increasing
    cpi_s: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.complex128)
        self.doppler_axis = np.asarray(self.doppler_axis, dtype=np.float64)
        if self.grid.shape != (1, self.doppler_axis.size):
            raise ValueError(
                f"grid shape {self.grid.shape} is not one zero-lag row of "
                f"{self.doppler_axis.size} Doppler bins")
        if not (self.doppler_axis[1:] > self.doppler_axis[:-1]).all():
            raise ValueError("doppler_axis must be strictly increasing")

    def peak_location(self) -> tuple[int, int]:
        """Indices (0, doppler_bin) of the largest magnitude cell."""
        return np.unravel_index(np.argmax(np.abs(self.grid)), self.grid.shape)


@dataclass
class Spectrogram:
    """Doppler x time magnitude map, max-normalized to [0, 1]."""

    values: np.ndarray        # (doppler_bins, T) non-negative
    doppler_axis: np.ndarray  # hertz
    dt: float                 # seconds per column

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.doppler_axis = np.asarray(self.doppler_axis, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[0] != self.doppler_axis.size:
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"{self.doppler_axis.size} Doppler bins")
        if not ((self.values >= 0) & (self.values < np.inf)).all():
            raise ValueError("spectrogram values must be finite and non-negative")
        if not np.allclose(self.doppler_axis, -self.doppler_axis[::-1], atol=1e-6):
            raise ValueError("doppler_axis must be symmetric around 0")
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]

    def save(self, path: str | Path) -> None:
        containers.write_array(path, "spectrogram", self.values, dt=float(self.dt),
                               doppler_min_hz=float(self.doppler_axis[0]),
                               doppler_max_hz=float(self.doppler_axis[-1]))

    @classmethod
    def load(cls, path: str | Path) -> "Spectrogram":
        return containers.read_array(path, "spectrogram", lambda v, h: cls(
            v, np.linspace(containers.number(h, "doppler_min_hz"),
                           containers.number(h, "doppler_max_hz"), len(v)),
            containers.number(h, "dt")))


def _check_pair(sur: BasebandSignal, ref: BasebandSignal) -> None:
    if sur.sample_rate_hz != ref.sample_rate_hz:
        raise ValueError(
            f"sample rates differ: {sur.sample_rate_hz:g} vs {ref.sample_rate_hz:g}")
    if len(sur) != len(ref):
        raise ValueError(f"signal lengths differ: {len(sur)} vs {len(ref)}")


def check_doppler_span(doppler_span_hz, sample_rate_hz: float) -> float:
    """The Doppler half-span as a float; it must lie in (0, fs/2).

    Inside that range the kept FFT bins -span..+span form an axis symmetric
    around 0 (the unpaired -fs/2 bin of an even-length FFT is never kept),
    which every CAF map and spectrogram relies on.
    """
    if np.ndim(doppler_span_hz) != 0:
        raise ValueError(
            f"doppler_span_hz must be a scalar half-span, got {doppler_span_hz!r}")
    span = float(doppler_span_hz)
    if not 0.0 < span < sample_rate_hz / 2.0:
        raise ValueError(
            f"doppler_span_hz must be in (0, fs/2) = (0, {sample_rate_hz / 2.0:g}) Hz, "
            f"got {span:g}")
    return span


@lru_cache(maxsize=8)
def _plan(n: int, oversample: int, fs: float, span: float):
    """Read-only DFT tables and axis of one CPI shape (see the module notes).

    Returns (inner, twiddle, doppler_axis): inner is (n2, K),
    twiddle (n1, K). The kept bins and their frequencies are those of the
    zero-padded FFT's `fftfreq` axis with |f| <= span, in increasing order.
    """
    n_fft = n * oversample
    step = 1.0 / (n_fft * (1.0 / fs))  # fftfreq's bin spacing, rounded alike
    k = np.arange(-(n_fft // 2), (n_fft - 1) // 2 + 1)
    k = k[np.abs(k * step) <= span]
    n1 = next(d for d in range(isqrt(n), 0, -1) if n % d == 0)
    p = np.arange(n // n1)[:, None]
    q = np.arange(n1)[:, None]
    inner = np.exp((-2j * np.pi / n_fft) * ((p * n1 * k) % n_fft))
    twiddle = np.exp((-2j * np.pi / n_fft) * ((q * k) % n_fft))
    tables = (inner, twiddle, k * step)
    for a in tables:
        a.flags.writeable = False
    return tables


def _same_axis(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether axis a matches axis b: the same array (maps of one plan) or
    the same shape and `np.allclose(a, b)`."""
    return a is b or (a.shape == b.shape and np.allclose(a, b))


def compute_caf(sur: BasebandSignal, ref: BasebandSignal, doppler_span_hz: float,
                *, doppler_oversample: int = 1) -> CafMap:
    """CAF(0, f) = sum_t sur(t) conj(ref(t)) exp(-j 2 pi f t).

    Doppler bins are the frequencies k * fs / (n * doppler_oversample) in
    [-doppler_span_hz, +doppler_span_hz], a half-span in (0, fs/2), so
    `doppler_oversample` gives finer Doppler spacing. Every returned value
    equals the direct sum at its Doppler bin. Maps of one CPI shape share
    their (read-only) axis array.
    """
    _check_pair(sur, ref)
    if doppler_oversample < 1:
        raise ValueError("doppler_oversample must be >= 1")
    n = len(sur)
    if n == 0:
        raise ValueError("signals must hold at least one sample")
    fs = sur.sample_rate_hz
    span = check_doppler_span(doppler_span_hz, fs)
    inner, twiddle, doppler_axis = _plan(n, doppler_oversample, fs, span)

    # sample index p*n1 + q: rows q, columns p
    partial = (sur.samples * np.conj(ref.samples)).reshape(-1, len(twiddle)).T @ inner
    partial *= twiddle
    return CafMap(partial.sum(axis=0, keepdims=True), doppler_axis, n / fs)


def self_caf(ref: BasebandSignal, doppler_span_hz: float, *,
             doppler_oversample: int = 1) -> CafMap:
    """Ambiguity of the reference channel against itself (the CLEAN template)."""
    return compute_caf(ref, ref, doppler_span_hz, doppler_oversample=doppler_oversample)


def clean_dsi(caf: CafMap, self_map: CafMap, iterations: int = 1) -> CafMap:
    """Subtract scaled self-ambiguity templates to cancel the zero-Doppler ridge.

    Each iteration scales the unit-peak self template by the remaining CAF
    value at zero Doppler and subtracts it. With a single static path this
    cancels the DSI ridge exactly.
    """
    if not _same_axis(caf.doppler_axis, self_map.doppler_axis):
        raise ValueError("CAF and self-CAF must share identical axes")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    peak = self_map.grid[self_map.peak_location()]
    if peak == 0:
        return CafMap(caf.grid.copy(), caf.doppler_axis, caf.cpi_s)
    template = self_map.grid / peak

    grid = caf.grid.copy()
    m0 = int(np.argmin(np.abs(caf.doppler_axis)))
    for _ in range(iterations):
        grid -= grid[0, m0] * template
    return CafMap(grid, caf.doppler_axis, caf.cpi_s)


def assemble_spectrogram(cafs) -> Spectrogram:
    """Stack each CAF's Doppler magnitudes as one column along time.

    The assembled map is max-normalized to [0, 1].
    """
    cafs = list(cafs)
    if not cafs:
        raise ValueError("need at least one CAF map")
    first = cafs[0]
    if not all(_same_axis(c.doppler_axis, first.doppler_axis) for c in cafs):
        raise ValueError("all CAF maps must share the same axes")
    values = np.abs(np.stack([c.grid[0] for c in cafs], axis=1))
    m = values.max()
    if m > 0:
        values = values / m
    return Spectrogram(values, first.doppler_axis, first.cpi_s)


def spectrogram_pipeline(sur: BasebandSignal, ref: BasebandSignal, *,
                         cpi_s: float, doppler_span_hz: float,
                         doppler_oversample: int = 1,
                         clean_iterations: int = 0) -> Spectrogram:
    """Slice a long capture into CPIs and build the micro-Doppler spectrogram."""
    _check_pair(sur, ref)
    if clean_iterations < 0:
        raise ValueError(f"clean_iterations must be >= 0, got {clean_iterations}")
    fs = sur.sample_rate_hz
    n_cpi = int(round(cpi_s * fs))
    if n_cpi < 2:
        raise ValueError("CPI too short for this sample rate")
    n_frames = len(sur) // n_cpi
    if n_frames < 1:
        raise ValueError("signal shorter than one CPI")

    maps = []
    for i in range(n_frames):
        sl = slice(i * n_cpi, (i + 1) * n_cpi)
        sur_i, ref_i = sur[sl], ref[sl]
        m = compute_caf(sur_i, ref_i, doppler_span_hz,
                        doppler_oversample=doppler_oversample)
        if clean_iterations > 0:
            tmpl = self_caf(ref_i, doppler_span_hz, doppler_oversample=doppler_oversample)
            m = clean_dsi(m, tmpl, iterations=clean_iterations)
        maps.append(m)
    return assemble_spectrogram(maps)
