import numpy as np
import pytest

from dopplerpose.caf import Spectrogram, spectrogram_pipeline
from dopplerpose.denoise import denoise
from dopplerpose.motion import ActivityKind, generate_activity
from dopplerpose.wavesim import (
    Geometry,
    InterferenceConfig,
    ScattererModel,
    generate_waveform,
    synthesize_surveillance,
)


def make_spec(values):
    values = np.asarray(values, dtype=float)
    axis = np.linspace(-10, 10, values.shape[0])
    return Spectrogram(values, axis, dt=0.1)


@pytest.mark.parametrize("q", [0.0, 0.3, 0.6, 0.95])
def test_closed_form_oracle(q):
    # max(x - quantile(x, q, axis=0), 0) / max, bit for bit
    x = np.random.default_rng(int(q * 100)).random((81, 12))
    floor = np.maximum(x - np.quantile(x, q, axis=0), 0.0)
    out = denoise(make_spec(x), q)
    assert np.array_equal(out.values, floor / floor.max())


def test_all_zero_stays_zero():
    s = make_spec(np.zeros((5, 4)))
    out = denoise(s, 0.6)
    assert np.all(out.values == 0.0)


def test_shape_axis_dt_preserved():
    rng = np.random.default_rng(1)
    s = make_spec(rng.random((11, 8)))
    out = denoise(s, 0.4)
    assert out.values.shape == s.values.shape
    assert np.array_equal(out.doppler_axis, s.doppler_axis)
    assert out.dt == s.dt


def test_output_range_in_unit_interval():
    rng = np.random.default_rng(2)
    for q in (0.0, 0.3, 0.9):
        s = make_spec(rng.random((7, 9)))
        out = denoise(s, q)
        assert out.values.min() >= 0.0
        assert out.values.max() <= 1.0 + 1e-12


def test_invalid_params_rejected():
    for q in (-0.1, 1.0, float("nan")):
        with pytest.raises(ValueError, match="quantile must be in"):
            denoise(make_spec(np.zeros((3, 3))), q)


def test_noise_reduction_against_clean_pipeline():
    # oracle: the same scene rendered without any interference
    fs = 16e3
    geom = Geometry(tx_pos=[-4, 8, 1.5], rx_sur_pos=[0, 8, 1.0], rx_ref_pos=[-3.8, 8, 1.5])
    pose = generate_activity(ActivityKind.WPLUS, 4.0, seed=3)
    u = generate_waveform(8e3, 4.0, fs, seed=2)
    sc = ScattererModel()
    clean_sur, _ = synthesize_surveillance(u, pose, sc, geom, InterferenceConfig(), 0)
    clean = spectrogram_pipeline(clean_sur, u, cpi_s=0.1, doppler_span_hz=100.0,
                                 doppler_oversample=4)

    noisy_vals = clean.values + 0.1 * np.random.default_rng(5).random(clean.values.shape)
    noisy_vals /= noisy_vals.max()
    noisy = Spectrogram(noisy_vals, clean.doppler_axis, clean.dt)

    den = denoise(noisy, 0.6)
    err_noisy = np.abs(noisy.values - clean.values).mean()
    err_den = np.abs(den.values - clean.values).mean()
    assert err_den < err_noisy
