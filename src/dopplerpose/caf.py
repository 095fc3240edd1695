"""Cross-ambiguity maps, CLEAN cancellation of the direct signal, and
micro-Doppler spectrogram assembly.

The CAF keeps only the Doppler bins within the configured half-span, so it
evaluates those bins and no others (FFT pruning): a two-stage DFT of the
lag products sur(t) * conj(ref(t - tau)) over t = p*n1 + q, with n = n1*n2
and n1 the largest divisor of n at most sqrt(n). The first stage is one
matmul of the (n1, n2) lag rows with a (n2, K) table of exp(-j 2 pi k p n1 / N),
the second multiplies by (n1, K) twiddles exp(-j 2 pi k q / N) and sums over
q, where N = n * doppler_oversample and K is the number of kept bins. Phase
indices are reduced mod N in integers before the exp, and the tables and
axes come from one cached plan per CPI shape. The result is the direct sum
at every grid point (to rounding).

Cost: n*K complex multiply-adds per delay bin, against about N log2 N for a
zero-padded FFT of all N bins, so the pruned form pays off only while K is
small. Measured on a 1,600-sample CPI with oversample 4 (one BLAS thread,
2-vCPU x86 VM), one delay bin: the configured 100 Hz half-span of 16 kHz
keeps 81 bins and takes 65 us against 139 us for the FFT; the two break even
near 320 bins (a 400 Hz half-span), and at the full band (6,399 bins) the FFT
is ten times faster. Every caller here runs the configured span, so there is
no FFT path.

Range resolution at WiFi bandwidths cannot separate body parts, so the
spectrogram step sums each map over all its delay bins and keeps Doppler
only, one column per coherent processing interval.
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
    """Delay x Doppler complex ambiguity surface for one CPI."""

    grid: np.ndarray          # (delay_bins, doppler_bins) complex
    delay_axis: np.ndarray    # seconds, strictly increasing
    doppler_axis: np.ndarray  # hertz, strictly increasing
    cpi_s: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.complex128)
        self.delay_axis = np.asarray(self.delay_axis, dtype=np.float64)
        self.doppler_axis = np.asarray(self.doppler_axis, dtype=np.float64)
        if self.grid.shape != (self.delay_axis.size, self.doppler_axis.size):
            raise ValueError(
                f"grid shape {self.grid.shape} does not match axes "
                f"({self.delay_axis.size}, {self.doppler_axis.size})")
        for name, ax in (("delay_axis", self.delay_axis), ("doppler_axis", self.doppler_axis)):
            if not (ax[1:] > ax[:-1]).all():
                raise ValueError(f"{name} must be strictly increasing")

    def peak_location(self) -> tuple[int, int]:
        """Indices (delay_bin, doppler_bin) of the largest magnitude cell."""
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
        if not self.dt > 0:
            raise ValueError("dt must be positive")

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
            v, np.linspace(float(h["doppler_min_hz"]), float(h["doppler_max_hz"]), len(v)),
            float(h["dt"])))


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
def _plan(n: int, oversample: int, fs: float, span: float, delay_bins: int):
    """Read-only DFT tables and axes of one CPI shape (see the module notes).

    Returns (inner, twiddle, doppler_axis, delay_axis): inner is (n2, K),
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
    tables = (inner, twiddle, k * step, np.arange(delay_bins) / fs)
    for a in tables:
        a.flags.writeable = False
    return tables


def _same_axis(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether axis a matches axis b: the same array (maps of one plan) or
    the same shape and `np.allclose(a, b)`."""
    return a is b or (a.shape == b.shape and np.allclose(a, b))


def compute_caf(sur: BasebandSignal, ref: BasebandSignal, delay_bins: int,
                doppler_span_hz: float, *, doppler_oversample: int = 1) -> CafMap:
    """CAF(tau, f) = sum_t sur(t) conj(ref(t - tau)) exp(-j 2 pi f t).

    Delays are the first `delay_bins` non-negative sample lags; Doppler bins
    are the frequencies k * fs / (n * doppler_oversample) in
    [-doppler_span_hz, +doppler_span_hz], a half-span in (0, fs/2), so
    `doppler_oversample` gives finer Doppler spacing. Every returned value
    equals the direct sum at its grid point. Maps of one CPI shape share
    their (read-only) axis arrays.
    """
    _check_pair(sur, ref)
    n = len(sur)
    if not 1 <= delay_bins <= n:
        raise ValueError(f"delay_bins must be in [1, {n}], got {delay_bins}")
    if doppler_oversample < 1:
        raise ValueError("doppler_oversample must be >= 1")
    fs = sur.sample_rate_hz
    span = check_doppler_span(doppler_span_hz, fs)
    inner, twiddle, doppler_axis, delay_axis = _plan(
        n, doppler_oversample, fs, span, delay_bins)

    lags = np.zeros((delay_bins, n), dtype=np.complex128)
    ref_conj = np.conj(ref.samples)
    for k in range(delay_bins):
        lags[k, k:] = sur.samples[k:] * ref_conj[: n - k]

    # lag index p*n1 + q: rows q, columns p
    partial = lags.reshape(delay_bins, -1, len(twiddle)).transpose(0, 2, 1) @ inner
    partial *= twiddle
    return CafMap(
        grid=partial.sum(axis=1),
        delay_axis=delay_axis,
        doppler_axis=doppler_axis,
        cpi_s=n / fs,
    )


def self_caf(ref: BasebandSignal, delay_bins: int, doppler_span_hz: float,
             *, doppler_oversample: int = 1) -> CafMap:
    """Ambiguity of the reference channel against itself (the CLEAN template)."""
    return compute_caf(ref, ref, delay_bins, doppler_span_hz,
                       doppler_oversample=doppler_oversample)


def clean_dsi(caf: CafMap, self_map: CafMap, iterations: int = 1) -> CafMap:
    """Subtract scaled self-ambiguity templates to cancel zero-Doppler ridges.

    Each iteration locates the strongest remaining cell in the zero-Doppler
    column, scales the unit-peak self template by the complex CAF value
    there, aligns the template's peak delay to that cell and subtracts. With
    a single static path this cancels the DSI ridge exactly.
    """
    if caf.grid.shape != self_map.grid.shape \
            or not _same_axis(caf.delay_axis, self_map.delay_axis) \
            or not _same_axis(caf.doppler_axis, self_map.doppler_axis):
        raise ValueError("CAF and self-CAF must share identical axes")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")

    ks, ms = self_map.peak_location()
    peak = self_map.grid[ks, ms]
    if peak == 0:
        return CafMap(caf.grid.copy(), caf.delay_axis, caf.doppler_axis, caf.cpi_s)
    template = self_map.grid / peak

    grid = caf.grid.copy()
    m0 = int(np.argmin(np.abs(caf.doppler_axis)))
    n_delay = grid.shape[0]
    for _ in range(iterations):
        k_star = int(np.argmax(np.abs(grid[:, m0])))
        alpha = grid[k_star, m0]
        shift = k_star - ks
        shifted = np.zeros_like(template)
        if shift >= 0:
            shifted[shift:] = template[: n_delay - shift]
        else:
            shifted[:shift] = template[-shift:]
        grid -= alpha * shifted
    return CafMap(grid, caf.delay_axis, caf.doppler_axis, caf.cpi_s)


def assemble_spectrogram(cafs) -> Spectrogram:
    """Collapse each CAF to one Doppler column and concatenate along time.

    Magnitudes are summed over all delay bins (there is no usable range
    resolution), and the assembled map is max-normalized to [0, 1].
    """
    cafs = list(cafs)
    if not cafs:
        raise ValueError("need at least one CAF map")
    first = cafs[0]
    for name in ("delay_axis", "doppler_axis"):
        if not all(_same_axis(getattr(c, name), getattr(first, name)) for c in cafs):
            raise ValueError("all CAF maps must share the same axes")
    # Stacked C-ordered, the sum adds the delay rows one after another.
    values = np.abs(np.stack([c.grid for c in cafs], axis=2)).sum(axis=0)
    m = values.max()
    if m > 0:
        values = values / m
    return Spectrogram(values, first.doppler_axis, first.cpi_s)


def spectrogram_pipeline(sur: BasebandSignal, ref: BasebandSignal, *,
                         cpi_s: float, delay_bins: int,
                         doppler_span_hz: float,
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
        m = compute_caf(sur_i, ref_i, delay_bins, doppler_span_hz,
                        doppler_oversample=doppler_oversample)
        if clean_iterations > 0:
            tmpl = self_caf(ref_i, delay_bins, doppler_span_hz,
                            doppler_oversample=doppler_oversample)
            m = clean_dsi(m, tmpl, iterations=clean_iterations)
        maps.append(m)
    return assemble_spectrogram(maps)
