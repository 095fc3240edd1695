"""Zero-lag cross-ambiguity maps, CLEAN cancellation of the direct signal,
and micro-Doppler spectrogram assembly, in one batched pass per capture.

`compute_caf` cuts a capture into whole coherent processing intervals (CPIs)
and returns the zero-lag cut of each CPI's cross-ambiguity function: one row
over Doppler per CPI. Range resolution at WiFi bandwidths cannot separate
body parts, and every path of a room-scale scene is far shorter than one
sample (c/fs is 18.7 km at 16 kHz; `wavesim` rejects any path of a sample
or more), so the target returns and the direct signal that CLEAN
cancels all sit at lag 0. `clean_dsi` cancels every row at once, and
`assemble_spectrogram` makes each row's magnitudes one spectrogram column.

The CAF keeps only the Doppler bins within the configured half-span, so it
evaluates those bins and no others (FFT pruning): a two-stage DFT of the
products sur(t) * conj(ref(t)) over t = p*n1 + q of an n-sample CPI, with
n = n1*n2. The first stage is one stacked matmul of a (K, n2) table of
exp(-j 2 pi k p n1 / N) with every CPI's (n2, n1) block of products, the
second multiplies by (K, n1) twiddles exp(-j 2 pi k q / N) and sums over q,
where N = n * doppler_oversample and K is the number of kept bins. The
(n_cpi, K, n1) first-stage result is the pass's largest temporary, so n1 is
the largest divisor of n at most n^(1/3): 10 for a 1,600-sample CPI, where
sqrt(n) = 40 would double the pass's peak memory. Phase indices are reduced
mod N in integers before the exp, and the tables and axis come from one
cached plan per CPI shape. The result is the direct sum at every Doppler
bin (to rounding).

Cost: n*K complex multiply-adds per CPI, against about N log2 N for a
zero-padded FFT of all N bins. On a 5 s capture at 16 kHz (50 CPIs of 1,600
samples, oversample 4; one BLAS thread, 2-vCPU x86 VM) the configured 100 Hz
half-span keeps 81 bins and takes 2.2 ms against 4.2 ms for the FFT of every
CPI; the two break even near 160 bins (a 200 Hz half-span), and at the full
band (6,399 bins) the FFT is about sixty times faster. Every caller runs the
configured span: there is no FFT path.

At zero lag one CLEAN pass is the whole cancellation. The self template of
CPI t is DFT(|ref_t|^2), whose peak is its 0 Hz cell <ref_t, ref_t>, and the
CAF's 0 Hz cell is <ref_t, sur_t>. Subtracting the template scaled by their
ratio a_t gives the CAF of sur_t - a_t ref_t: the surveillance channel less
its least-squares projection onto the reference, the one-tap extensive
cancellation algorithm of passive bistatic radar (Colone et al., IEEE Trans.
Aerosp. Electron. Syst. 45(2), 2009). Its 0 Hz cell is then 0 to rounding,
so a second pass would move the map by rounding only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import containers
from .wavesim import BasebandSignal


@dataclass
class CafMap:
    """Zero-lag complex ambiguity over Doppler, one row per CPI of a capture."""

    grid: np.ndarray          # (n_cpi, doppler_bins) complex: each CPI's zero-lag row
    doppler_axis: np.ndarray  # hertz, strictly increasing
    cpi_s: float

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=np.complex128)
        self.doppler_axis = np.asarray(self.doppler_axis, dtype=np.float64)
        if self.grid.ndim != 2 or self.grid.shape[1] != self.doppler_axis.size \
                or not len(self.grid):
            raise ValueError(f"grid shape {self.grid.shape} is not one zero-lag row of "
                             f"{self.doppler_axis.size} Doppler bins for each of 1+ CPIs")
        if not (self.doppler_axis[1:] > self.doppler_axis[:-1]).all():
            raise ValueError("doppler_axis must be strictly increasing")


@dataclass
class Spectrogram:
    """Doppler x time magnitude map, max-normalized to [0, 1]."""

    values: np.ndarray        # (doppler_bins, T) non-negative
    doppler_axis: np.ndarray  # hertz, strictly increasing and symmetric around 0
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
        if not (self.doppler_axis[1:] > self.doppler_axis[:-1]).all():
            raise ValueError("doppler_axis must be strictly increasing")
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
    n1 = next(d for d in range(round(n ** (1 / 3)), 0, -1) if n % d == 0)
    p = np.arange(n // n1)[:, None]
    q = np.arange(n1)[:, None]
    inner = np.exp((-2j * np.pi / n_fft) * ((p * n1 * k) % n_fft))
    twiddle = np.exp((-2j * np.pi / n_fft) * ((q * k) % n_fft))
    tables = (inner, twiddle, k * step)
    for a in tables:
        a.flags.writeable = False
    return tables


def _cpi_plan(cpi_s: float, fs: float, doppler_span_hz, doppler_oversample: int):
    """The samples of one CPI and `_plan`'s tables for them, the settings checked."""
    if doppler_oversample < 1:
        raise ValueError("doppler_oversample must be >= 1")
    span = check_doppler_span(doppler_span_hz, fs)
    n = int(round(cpi_s * fs))
    if n < 2:
        raise ValueError("CPI too short for this sample rate")
    return n, _plan(n, doppler_oversample, fs, span)


def doppler_axis(*, cpi_s: float, sample_rate_hz: float, doppler_span_hz: float,
                 doppler_oversample: int = 1) -> np.ndarray:
    """The read-only Doppler axis of every map `compute_caf` makes at these settings."""
    return _cpi_plan(cpi_s, sample_rate_hz, doppler_span_hz, doppler_oversample)[1][2]


def compute_caf(sur: BasebandSignal, ref: BasebandSignal, *, cpi_s: float,
                doppler_span_hz: float, doppler_oversample: int = 1) -> CafMap:
    """Row t: sum_i sur(tn + i) conj(ref(tn + i)) exp(-j 2 pi f i / fs) over the
    n = round(cpi_s * fs) samples of CPI t, for each of the len(sur) // n whole
    CPIs (at least one; trailing samples are dropped), at the Doppler bins
    k * fs / (n * doppler_oversample) within +-doppler_span_hz, a half-span in
    (0, fs/2). Every value equals the direct sum at its bin; maps of one CPI
    shape share their read-only axis array."""
    if sur.sample_rate_hz != ref.sample_rate_hz:
        raise ValueError(
            f"sample rates differ: {sur.sample_rate_hz:g} vs {ref.sample_rate_hz:g}")
    if len(sur) != len(ref):
        raise ValueError(f"signal lengths differ: {len(sur)} vs {len(ref)}")
    n, (inner, twiddle, axis) = _cpi_plan(cpi_s, sur.sample_rate_hz, doppler_span_hz,
                                          doppler_oversample)
    n_cpi = len(sur) // n
    if n_cpi < 1:
        raise ValueError("signal shorter than one CPI")

    prod = sur.samples[:n_cpi * n] * np.conj(ref.samples[:n_cpi * n])
    # sample p*n1 + q of CPI t sits at [t, p, q]: (K, n2) @ (T, n2, n1) -> (T, K, n1)
    partial = inner.T @ prod.reshape(n_cpi, -1, len(twiddle))
    partial *= twiddle.T
    return CafMap(partial.sum(axis=2), axis, n / sur.sample_rate_hz)


def self_caf(ref: BasebandSignal, *, cpi_s: float, doppler_span_hz: float,
             doppler_oversample: int = 1) -> CafMap:
    """Ambiguity of the reference channel against itself (the CLEAN template)."""
    return compute_caf(ref, ref, cpi_s=cpi_s, doppler_span_hz=doppler_span_hz,
                       doppler_oversample=doppler_oversample)


def clean_dsi(caf: CafMap, self_map: CafMap) -> CafMap:
    """One CLEAN pass over every CPI: row r becomes grid[r] - grid[r, m0] *
    self[r] / peak[r], m0 the 0 Hz bin and peak[r] the self row's largest-magnitude
    cell. A row whose self row is all zero (no reference energy) is left as it is."""
    if caf.grid.shape != self_map.grid.shape or \
            not np.array_equal(caf.doppler_axis, self_map.doppler_axis):
        raise ValueError("CAF and self-CAF must share identical axes")
    tmpl = self_map.grid
    peak = np.take_along_axis(tmpl, np.abs(tmpl).argmax(axis=1)[:, None], axis=1)
    live = peak[:, 0] != 0
    m0 = int(np.argmin(np.abs(caf.doppler_axis)))
    grid = caf.grid.copy()
    grid[live] -= grid[live, m0, None] * (tmpl[live] / peak[live])
    return CafMap(grid, caf.doppler_axis, caf.cpi_s)


def assemble_spectrogram(caf: CafMap) -> Spectrogram:
    """Each CPI's Doppler magnitudes as one time column, max-normalized to [0, 1]."""
    values = np.abs(caf.grid).T
    m = values.max()
    if m > 0:
        values = values / m
    return Spectrogram(values, caf.doppler_axis, caf.cpi_s)


def spectrogram_pipeline(sur: BasebandSignal, ref: BasebandSignal, *, cpi_s: float,
                         doppler_span_hz: float, doppler_oversample: int = 1,
                         clean: bool = False) -> Spectrogram:
    """The micro-Doppler spectrogram of a capture: its CAF map, with the
    direct signal cancelled by CLEAN when `clean` is set."""
    kw = dict(cpi_s=cpi_s, doppler_span_hz=doppler_span_hz,
              doppler_oversample=doppler_oversample)
    m = compute_caf(sur, ref, **kw)
    if clean:
        m = clean_dsi(m, self_caf(ref, **kw))
    return assemble_spectrogram(m)
