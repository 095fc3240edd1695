import json
from pathlib import Path

import numpy as np
import pytest

from dopplerpose import harness
from dopplerpose.caf import (
    CafMap,
    Spectrogram,
    assemble_spectrogram,
    clean_dsi,
    compute_caf,
    self_caf,
    spectrogram_pipeline,
)
from dopplerpose.denoise import denoise
from dopplerpose.motion import ActivityKind, generate_activity
from dopplerpose.wavesim import (
    C_LIGHT,
    BasebandSignal,
    Geometry,
    InterferenceConfig,
    ScattererModel,
    bistatic_doppler,
    generate_waveform,
    synthesize_surveillance,
)
from test_wavesim import one_joint_weights, single_scatterer_pose


DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def direct_caf(sur, ref, freqs):
    """Independent O(N * dopplers) evaluation of the zero-lag CAF sum."""
    n = len(sur)
    fs = sur.sample_rate_hz
    lag = sur.samples * np.conj(ref.samples)
    t = np.arange(n) / fs
    phases = np.exp(-2j * np.pi * np.outer(freqs, t))  # (F, N)
    return (phases @ lag)[None]  # (1, F)


def one_cpi(sur, ref, doppler_span_hz, **kw):
    """`compute_caf` of a capture that is one CPI long."""
    return compute_caf(sur, ref, cpi_s=len(sur) / sur.sample_rate_hz,
                       doppler_span_hz=doppler_span_hz, **kw)


def fft_caf(sur, ref, doppler_span_hz, doppler_oversample=1):
    """Oracle: the zero-padded FFT over time that `compute_caf` used to run,
    keeping the bins with |f| <= span in increasing frequency order."""
    n = len(sur)
    fs = sur.sample_rate_hz
    n_fft = n * doppler_oversample
    spectrum = np.fft.fft(sur.samples * np.conj(ref.samples), n=n_fft)
    freqs = np.fft.fftfreq(n_fft, d=1.0 / fs)
    keep = np.where(np.abs(freqs) <= doppler_span_hz)[0]
    order = keep[np.argsort(freqs[keep])]
    return CafMap(spectrum[None, order], freqs[order], n / fs)


class TestComputeCaf:
    FS = 1e4

    def _sig(self, n=1024, seed=0):
        return generate_waveform(4e3, n / self.FS, self.FS, seed=seed)

    def test_autocorrelation_peak_is_energy(self):
        u = self._sig()
        m = one_cpi(u, u, 100.0)
        f = np.argmax(np.abs(m.grid[0]))
        assert m.grid.shape[0] == 1 and m.doppler_axis[f] == 0.0
        energy = np.sum(np.abs(u.samples) ** 2)
        assert np.isclose(np.abs(m.grid[0, f]), energy, rtol=1e-12)

    def test_pure_modulation(self):
        u = self._sig(seed=3)
        modulated = BasebandSignal(u.samples * np.exp(2j * np.pi * 100.0 * np.arange(len(u)) / self.FS),
                                   self.FS)
        m = one_cpi(modulated, u, 200.0)
        f = np.argmax(np.abs(m.grid[0]))
        nearest = m.doppler_axis[np.argmin(np.abs(m.doppler_axis - 100.0))]
        assert m.doppler_axis[f] == nearest

    @pytest.mark.parametrize("oversample", [1, 4])
    def test_fft_matches_direct_sum(self, oversample):
        rng = np.random.default_rng(4)
        n = 512
        sur = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), self.FS)
        ref = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), self.FS)
        m = one_cpi(sur, ref, 300.0, doppler_oversample=oversample)
        oracle = direct_caf(sur, ref, m.doppler_axis)
        rel = np.abs(m.grid - oracle).max() / np.abs(oracle).max()
        assert rel < 1e-6

    def test_default_cpi_matches_fft(self):
        # the configured CPI: 0.1 s at 16 kHz, 100 Hz half-span, oversample 4
        rng = np.random.default_rng(5)
        n, fs = 1600, 16e3
        sur = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), fs)
        ref = BasebandSignal(rng.normal(size=n) + 1j * rng.normal(size=n), fs)
        m = compute_caf(sur, ref, cpi_s=0.1, doppler_span_hz=100.0, doppler_oversample=4)
        oracle = fft_caf(sur, ref, 100.0, doppler_oversample=4)
        assert np.array_equal(m.doppler_axis, oracle.doppler_axis)
        assert m.grid.shape == (1, 81)
        rel = np.abs(m.grid - oracle.grid).max() / np.abs(oracle.grid).max()
        assert rel < 1e-12

    def test_rejects_mismatched_inputs(self):
        u = self._sig()
        other_rate = BasebandSignal(u.samples, 2 * self.FS)
        with pytest.raises(ValueError, match="sample rates differ"):
            one_cpi(u, other_rate, 50.0)
        shorter = BasebandSignal(u.samples[:-1], self.FS)
        with pytest.raises(ValueError, match="lengths differ"):
            one_cpi(u, shorter, 50.0)

    def test_rejects_empty_signals(self):
        # an empty capture holds no whole CPI
        empty = BasebandSignal(np.zeros(0, dtype=complex), self.FS)
        with pytest.raises(ValueError, match="shorter than one CPI"):
            compute_caf(empty, empty, cpi_s=0.1, doppler_span_hz=50.0)


class TestDopplerSpan:
    """The span is a half-span in (0, fs/2): the axis is always symmetric."""

    FS = 16e3

    def _pair(self, dur=0.2):
        u = generate_waveform(8e3, dur, self.FS, seed=2)
        return u, u

    def test_asymmetric_span_rejected(self):
        sur, ref = self._pair()
        with pytest.raises(ValueError, match="scalar half-span"):
            compute_caf(sur, ref, cpi_s=0.1, doppler_span_hz=(-50.0, 100.0))
        with pytest.raises(ValueError, match="scalar half-span"):
            spectrogram_pipeline(sur, ref, cpi_s=0.1, doppler_span_hz=(-50.0, 100.0))

    @pytest.mark.parametrize("span", [8000.0, 12000.0, 0.0, -100.0])
    def test_span_outside_half_band_rejected(self, span):
        sur, ref = self._pair()
        with pytest.raises(ValueError, match="fs/2"):
            compute_caf(sur, ref, cpi_s=0.1, doppler_span_hz=span)
        with pytest.raises(ValueError, match="fs/2"):
            spectrogram_pipeline(sur, ref, cpi_s=0.1, doppler_span_hz=span,
                                 doppler_oversample=4)

    @pytest.mark.parametrize("oversample", [1, 3, 4])
    @pytest.mark.parametrize("span", [1.0, 100.0, 2500.0, 7999.0])
    def test_valid_span_gives_symmetric_spectrogram(self, span, oversample):
        sur, ref = self._pair()
        spec = spectrogram_pipeline(sur, ref, cpi_s=0.05, doppler_span_hz=span,
                                    doppler_oversample=oversample)
        axis = spec.doppler_axis
        assert np.array_equal(axis, -axis[::-1])
        assert np.abs(axis).max() <= span


class TestSelfCaf:
    def test_peak_at_origin(self):
        u = generate_waveform(4e3, 0.1, 1e4, seed=5)
        m = self_caf(u, cpi_s=0.1, doppler_span_hz=60.0)
        f = np.argmax(np.abs(m.grid[0]))
        assert m.grid.shape[0] == 1 and m.doppler_axis[f] == 0.0

    def test_zero_signal(self):
        z = BasebandSignal(np.zeros(256, dtype=complex), 1e4)
        m = self_caf(z, cpi_s=0.0256, doppler_span_hz=50.0)
        assert np.all(m.grid == 0)


class TestSharedPlan:
    """Maps of one CPI shape share a read-only axis; `clean_dsi` accepts it at
    once and equal-valued copies by value, and rejects the rest."""

    FS = 1e4
    KW = dict(cpi_s=0.1, doppler_span_hz=60.0, doppler_oversample=4)

    def _maps(self):
        u = generate_waveform(4e3, 0.3, self.FS, seed=11)
        v = generate_waveform(4e3, 0.3, self.FS, seed=12)
        return compute_caf(v, u, **self.KW), self_caf(u, **self.KW)

    def test_equal_parameters_share_read_only_axes(self):
        a, b = self._maps()
        axis = a.doppler_axis
        assert b.doppler_axis is axis and clean_dsi(a, b).doppler_axis is axis
        with pytest.raises(ValueError, match="read-only"):
            axis[0] = 1.0

    @staticmethod
    def _with_axis(m, doppler_axis):
        return CafMap(m.grid.copy(), doppler_axis, m.cpi_s)

    def test_equal_valued_copies_accepted(self):
        a, b = self._maps()
        copied = self._with_axis(a, a.doppler_axis.copy())
        assert copied.doppler_axis is not a.doppler_axis
        assert np.array_equal(clean_dsi(copied, b).grid, clean_dsi(a, b).grid)

    @pytest.mark.parametrize("change", ["doppler_axis", "doppler_bins"])
    def test_differing_axes_rejected(self, change):
        a, b = self._maps()
        if change == "doppler_axis":  # shifted by a fifth of a bin
            moved = self._with_axis(a, a.doppler_axis + 0.5)
        else:  # one bin fewer
            moved = CafMap(a.grid[:, 1:], a.doppler_axis[1:], a.cpi_s)
        with pytest.raises(ValueError, match="identical axes"):
            clean_dsi(moved, b)

    def test_grid_of_more_than_one_lag_rejected(self):
        # a (lag, CPI, Doppler) grid: the map holds the zero-lag row of each CPI only
        a, _ = self._maps()
        with pytest.raises(ValueError, match="one zero-lag row"):
            CafMap(np.stack([a.grid, a.grid]), a.doppler_axis, a.cpi_s)


class TestCleanDsi:
    FS = 1e4

    def test_exact_cancellation_of_scaled_self(self):
        u = generate_waveform(4e3, 0.1, self.FS, seed=7)
        s = self_caf(u, cpi_s=0.1, doppler_span_hz=60.0)
        k = 0.3 - 1.7j
        scaled = CafMap(k * s.grid, s.doppler_axis, s.cpi_s)
        out = clean_dsi(scaled, s)
        peak = np.abs(s.grid).max()
        assert np.abs(out.grid).max() <= 1e-6 * abs(k) * peak

    def test_idempotent_on_pure_dsi(self):
        u = generate_waveform(4e3, 0.1, self.FS, seed=8)
        s = self_caf(u, cpi_s=0.1, doppler_span_hz=60.0)
        caf0 = CafMap(2.0 * s.grid, s.doppler_axis, s.cpi_s)
        once = clean_dsi(caf0, s)
        twice = clean_dsi(once, s)
        peak0 = np.abs(caf0.grid).max()
        assert np.abs(twice.grid - once.grid).max() <= 1e-9 * peak0

    def test_axis_mismatch_rejected(self):
        u = generate_waveform(4e3, 0.1, self.FS, seed=9)
        a = self_caf(u, cpi_s=0.1, doppler_span_hz=60.0)
        b = self_caf(u, cpi_s=0.1, doppler_span_hz=30.0)
        with pytest.raises(ValueError):
            clean_dsi(a, b)

    def _dsi_scene(self, target=False):
        geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0],
                        rx_ref_pos=[-4, 8, 1.5])
        u = generate_waveform(4e3, 0.1, self.FS, seed=10)
        if target:
            # radial speed chosen to sit near +50 Hz of bistatic Doppler
            v = 50.0 * C_LIGHT / geom.carrier_hz / 2.0
            pose = single_scatterer_pose([0, 4, 1.0], [-0.707 * v, 0.707 * v, 0],
                                         n_frames=3)
            sc = ScattererModel(joint_weights=40.0 * one_joint_weights())
        else:
            pose = single_scatterer_pose([0, 4, 1.0], [0, 0, 0], n_frames=3)
            sc = ScattererModel(joint_weights=np.zeros(17))
        ic = InterferenceConfig(dsi_amplitude=1.0)
        _, sur = synthesize_surveillance(u, pose, sc, geom, ic, 0)
        caf0 = compute_caf(sur, u, cpi_s=0.1, doppler_span_hz=80.0)
        tmpl = self_caf(u, cpi_s=0.1, doppler_span_hz=80.0)
        return caf0, tmpl

    def test_dsi_scene_attenuated_20db(self):
        caf0, tmpl = self._dsi_scene(target=False)
        f0 = np.argmin(np.abs(caf0.doppler_axis))
        before = np.abs(caf0.grid[:, f0]).max()
        out = clean_dsi(caf0, tmpl)
        after = np.abs(out.grid[:, f0]).max()
        assert after <= 10 ** (-20.0 / 20) * before  # -20 dB; at lag 0 the cell reads 0

    def test_offset_target_perturbed_at_most_1db(self):
        caf0, tmpl = self._dsi_scene(target=True)
        f_t = np.argmin(np.abs(caf0.doppler_axis - 50.0))
        before = np.abs(caf0.grid[:, f_t]).max()
        out = clean_dsi(caf0, tmpl)
        after = np.abs(out.grid[:, f_t]).max()
        assert abs(20 * np.log10(after / before)) <= 1.0

    def test_cpi_without_reference_energy_keeps_its_row(self):
        # CPI 1 of the reference is silent: its template row is all zero, so
        # CLEAN leaves that row of the map alone and cancels the others
        kw = dict(cpi_s=0.1, doppler_span_hz=60.0)
        u = generate_waveform(4e3, 0.3, self.FS, seed=13)
        ref = BasebandSignal(u.samples * np.repeat([1.0, 0.0, 1.0], 1000), self.FS)
        caf0 = compute_caf(generate_waveform(4e3, 0.3, self.FS, seed=14), u, **kw)
        out = clean_dsi(caf0, self_caf(ref, **kw))
        assert np.array_equal(out.grid[1], caf0.grid[1]) and np.abs(caf0.grid[1]).max() > 0
        m0 = np.argmin(np.abs(caf0.doppler_axis))
        assert np.abs(out.grid[[0, 2], m0]).max() <= 1e-12 * np.abs(caf0.grid).max()
        sur = BasebandSignal(u.samples * np.repeat([0.5, 2.0, 0.7], 1000), self.FS)
        spec = spectrogram_pipeline(sur, ref, **kw, clean=True)
        assert np.array_equal(spec.values[:, 1], np.zeros(len(spec.doppler_axis)))


class TestAssembleSpectrogram:
    def _map(self, grid):
        return CafMap(grid, np.linspace(-20, 20, grid.shape[-1]), cpi_s=0.1)

    def test_single_cell(self):
        grid = np.zeros((1, 5), dtype=complex)
        grid[0, 3] = 2.0 - 1.0j
        s = assemble_spectrogram(self._map(grid))
        expect = np.zeros((5, 1))
        expect[3, 0] = 1.0
        assert np.allclose(s.values, expect)

    def test_two_identical_maps(self):
        # two CPIs with the same row make two equal columns
        rng = np.random.default_rng(0)
        row = rng.normal(size=5) + 1j * rng.normal(size=5)
        s = assemble_spectrogram(self._map(np.stack([row, row])))
        assert np.array_equal(s.values[:, 0], s.values[:, 1])

    def test_normalized_and_argmax_preserved(self):
        rng = np.random.default_rng(1)
        grid = rng.normal(size=(6, 9)) + 1j * rng.normal(size=(6, 9))
        raw = np.abs(grid).T
        s = assemble_spectrogram(self._map(grid))
        assert s.values.shape == (9, 6) and s.dt == 0.1
        assert s.values.min() >= 0.0 and s.values.max() == 1.0
        assert np.array_equal(np.argmax(s.values, axis=0), np.argmax(raw, axis=0))

    def test_empty_and_mismatched_rejected(self):
        # the map it takes holds one row of its axis's bins for each of 1+ CPIs
        with pytest.raises(ValueError, match="one zero-lag row"):
            assemble_spectrogram(self._map(np.zeros((0, 5), dtype=complex)))
        with pytest.raises(ValueError, match="one zero-lag row"):
            assemble_spectrogram(CafMap(np.ones((2, 5), dtype=complex),
                                        np.linspace(-20, 20, 4), cpi_s=0.1))


class TestWalkingSceneTrack:
    def test_column_peak_follows_root_doppler(self):
        fs = 16e3
        geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0],
                        rx_ref_pos=[-3.8, 8, 1.5])
        pose = generate_activity(ActivityKind.WPLUS, 5.0, seed=5)
        u = generate_waveform(8e3, 5.0, fs, seed=1)
        sur, _ = synthesize_surveillance(u, pose, ScattererModel(), geom,
                                         InterferenceConfig(), 0)
        spec = spectrogram_pipeline(sur, u, cpi_s=0.1, doppler_span_hz=100.0,
                                    doppler_oversample=4)
        bin_hz = spec.doppler_axis[1] - spec.doppler_axis[0]
        hits = 0
        for t in range(spec.n_frames - 1):
            root_v = (pose.positions[t + 1, 0] - pose.positions[t, 0]) / pose.dt
            root_x = 0.5 * (pose.positions[t + 1, 0] + pose.positions[t, 0])
            expect = bistatic_doppler(geom, root_x, root_v)
            peak = spec.doppler_axis[np.argmax(spec.values[:, t])]
            if abs(peak - expect) <= bin_hz:
                hits += 1
        assert hits / (spec.n_frames - 1) >= 0.8


def per_slice_pipeline(sur, ref, *, cpi_s, doppler_span_hz, doppler_oversample, clean):
    """Oracle: the spectrogram as built one CPI slice at a time, each CPI's row the
    direct sum and CLEAN two passes of the unit-peak self template."""
    fs = sur.sample_rate_hz
    n = int(round(cpi_s * fs))
    freqs = np.fft.fftfreq(n * doppler_oversample, d=1.0 / fs)
    freqs = np.sort(freqs[np.abs(freqs) <= doppler_span_hz])
    m0 = np.argmin(np.abs(freqs))
    rows = []
    for i in range(len(sur) // n):
        sur_i = BasebandSignal(sur.samples[i * n:(i + 1) * n], fs)
        ref_i = BasebandSignal(ref.samples[i * n:(i + 1) * n], fs)
        row = direct_caf(sur_i, ref_i, freqs)[0]
        if clean:
            tmpl = direct_caf(ref_i, ref_i, freqs)[0]
            peak = tmpl[np.argmax(np.abs(tmpl))]
            if peak != 0:
                for _ in range(2):
                    row = row - row[m0] * (tmpl / peak)
        rows.append(np.abs(row))
    values = np.stack(rows, axis=1)
    return Spectrogram(values / values.max(), freqs, n / fs)


class TestPipelineSlices:
    """The batched pass against the per-slice oracle."""

    FS = 16e3

    def _scene(self):
        geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0],
                        rx_ref_pos=[-3.8, 8, 1.5])
        pose = generate_activity(ActivityKind.WPLUS, 2.0, seed=3)
        u = generate_waveform(8e3, 1.0, self.FS, seed=2)
        ic = InterferenceConfig(dsi_amplitude=0.05, noise_floor=0.1)
        _, sur = synthesize_surveillance(u, pose, ScattererModel(), geom, ic, 0)
        return sur, u

    def test_non_finite_sample_still_rejected(self):
        sur, ref = self._scene()
        bad = sur.samples.copy()
        bad[1234] = complex(np.nan, 0.0)
        with pytest.raises(ValueError, match="signal samples must be finite"):
            spectrogram_pipeline(BasebandSignal(bad, self.FS), ref, cpi_s=0.1,
                                 doppler_span_hz=100.0)

    @pytest.mark.parametrize("seed", [3, 7])
    @pytest.mark.parametrize("kind", [k.value for k in ActivityKind])
    def test_s_m_and_d_match_the_oracle(self, kind, seed):
        # a 2 s activity at the default processing settings: 20 CPIs of 1,600
        # samples, 81 bins; M with the default interference and CLEAN
        data = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
        data["dataset"]["duration_s"] = 2.0
        cfg = harness.parse_config(data)
        pose, s, m, d = harness.simulate_activity(cfg, ActivityKind(kind), seed)
        ref, targets, full = harness.render_channels(cfg, pose, seed)
        kw = dict(cpi_s=cfg.dt, doppler_span_hz=cfg.doppler_span_hz,
                  doppler_oversample=cfg.doppler_oversample)
        want_s = per_slice_pipeline(targets, ref, **kw, clean=False)
        want_m = per_slice_pipeline(full, ref, **kw, clean=True)
        want_d = denoise(want_m, cfg.denoise_quantile)
        for got, want in ((s, want_s), (m, want_m), (d, want_d)):
            assert got.values.shape == want.values.shape == (81, 20) and got.dt == want.dt
            assert np.array_equal(got.doppler_axis, want.doppler_axis)
            assert np.abs(got.values - want.values).max() <= 1e-12


class TestSpectrogramIO:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_non_finite_or_negative_value_rejected(self, bad):
        vals = np.ones((9, 7))
        vals[4, 3] = bad
        with pytest.raises(ValueError, match="spectrogram values must be finite and non-negative"):
            Spectrogram(vals, np.linspace(-40, 40, 9), dt=0.1)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.random((9, 7)).astype(np.float32)
        s = Spectrogram(vals, np.linspace(-40, 40, 9), dt=0.1)
        path = tmp_path / "spec.dpc"
        s.save(path)
        back = Spectrogram.load(path)
        assert np.array_equal(back.values.astype(np.float32), vals)
        assert back.dt == 0.1
