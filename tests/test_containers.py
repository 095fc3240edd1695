import json
import re

import numpy as np
import pytest

from dopplerpose import containers
from dopplerpose import nncore as nn
from dopplerpose.caf import Spectrogram
from dopplerpose.motion import PoseSequence
from dopplerpose.poseopt import OptModel
from dopplerpose.wavesim import BasebandSignal


def test_header_is_single_json_line(tmp_path):
    path = tmp_path / "x.dpc"
    containers.write_array(path, "pose", np.zeros((3, 17, 3)), dt=0.1)
    first_line = path.read_bytes().split(b"\n", 1)[0]
    header = json.loads(first_line.decode("utf-8"))
    assert header["T"] == 3
    assert header["joints"] == 17
    assert header["layout"] == "T×J×3"
    assert header["dtype"] == "f32le"
    assert header["version"] == containers.FORMAT_VERSION


def test_signal_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    sig = (rng.normal(size=64) + 1j * rng.normal(size=64)).astype(np.complex64)
    path = tmp_path / "sig.dpc"
    containers.write_array(path, "signal", sig, sample_rate_hz=1e4, start_time_s=0.5)
    back, header = containers.read_array(path, "signal", lambda v, h: (v, h))
    fs, t0 = header["sample_rate_hz"], header["start_time_s"]
    assert fs == 1e4 and t0 == 0.5
    assert np.array_equal(back.astype(np.complex64), sig)


def test_spectrogram_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    values = rng.random((9, 12)).astype(np.float32)
    axis = np.linspace(-40.0, 40.0, 9)
    path = tmp_path / "spec.dpc"
    containers.write_array(path, "spectrogram", values, dt=0.1,
                           doppler_min_hz=axis[0], doppler_max_hz=axis[-1])
    back, header = containers.read_array(path, "spectrogram", lambda v, h: (v, h))
    back_axis = np.linspace(header["doppler_min_hz"], header["doppler_max_hz"], len(back))
    assert header["dt"] == 0.1
    assert np.allclose(back_axis, axis)
    assert np.array_equal(back.astype(np.float32), values)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "bad.dpc"
    containers.write_array(path, "pose", np.zeros((4, 17, 3)), dt=0.1)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(containers.ContainerError):
        containers.read_array(path, "pose", lambda v, h: (v, h))


@pytest.mark.parametrize("save, load, cut, tag", [
    (lambda p: PoseSequence(np.zeros((2, 17, 3)), 0.1).save(p), PoseSequence.load, 3, "f32le"),
    (lambda p: BasebandSignal(np.ones(4, dtype=complex), 1e3).save(p), BasebandSignal.load, 5,
     "c64le"),
    (lambda p: Spectrogram(np.ones((5, 4)), np.linspace(-10.0, 10.0, 5), 0.1).save(p),
     Spectrogram.load, 1, "f32le"),
    (lambda p: nn.save_checkpoint(p, kind="optmodel", params=[np.ones(4)]),
     lambda p: nn.load_checkpoint(p, "optmodel", None), 14, "f32le"),
], ids=["pose", "signal", "spectrogram", "checkpoint"])
def test_partial_element_payload_names_file_size_and_dtype(tmp_path, save, load, cut, tag):
    path = tmp_path / "cut.dpc"
    save(path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-cut])
    size = len(blob) - cut - blob.index(b"\n") - 1
    with pytest.raises(containers.ContainerError,
                       match=f"cut.dpc: payload of {size} bytes is not a whole number of {tag}"):
        load(path)


def test_missing_header_field_rejected(tmp_path):
    path = tmp_path / "bad.dpc"
    path.write_bytes(b'{"dtype": "f32le"}\n' + b"\x00" * 12)
    with pytest.raises(containers.ContainerError):
        containers.read_array(path, "pose", lambda v, h: (v, h))


@pytest.mark.parametrize("header", [b"[1]", b"3", b'"pose"', b"null"])
@pytest.mark.parametrize("read", [
    containers.read_container,
    lambda p: containers.read_array(p, "pose", lambda v, h: (v, h)),
    lambda p: nn.load_checkpoint(p, "optmodel", None),
], ids=["read_container", "read_array", "load_checkpoint"])
def test_non_object_header_rejected_with_file(tmp_path, header, read):
    path = tmp_path / "odd.dpc"
    path.write_bytes(header + b"\n" + b"\x00" * 12)
    with pytest.raises(containers.ContainerError, match="odd.dpc: header is a JSON"):
        read(path)


def test_bad_dtype_rejected(tmp_path):
    path = tmp_path / "bad.dpc"
    with pytest.raises(containers.ContainerError):
        containers.write_container(path, {"dtype": "f64be"}, np.zeros(3))


AXIS = np.linspace(-40.0, 40.0, 9)
SAVED = {
    "pose": (lambda: PoseSequence(np.zeros((3, 17, 3)), 0.1),
             {"version": 1, "kind": "pose", "T": 3, "joints": 17, "dt": 0.1,
              "layout": "T×J×3", "dtype": "f32le"}),
    "signal": (lambda: BasebandSignal(np.zeros(5, dtype=complex), 1e4, start_time_s=0.5),
               {"version": 1, "kind": "signal", "n": 5, "sample_rate_hz": 10000.0,
                "start_time_s": 0.5, "dtype": "c64le"}),
    "spectrogram": (lambda: Spectrogram(np.zeros((9, 6)), AXIS, 0.1),
                    {"version": 1, "kind": "spectrogram", "doppler_bins": 9, "T": 6,
                     "dt": 0.1, "doppler_min_hz": -40.0, "doppler_max_hz": 40.0,
                     "dtype": "f32le"}),
}


@pytest.mark.parametrize("kind", sorted(SAVED))
def test_class_save_writes_exact_header(tmp_path, kind):
    make, header = SAVED[kind]
    path = tmp_path / "x.dpc"
    make().save(path)
    first_line = path.read_bytes().split(b"\n", 1)[0]
    assert json.loads(first_line.decode("utf-8")) == header
    assert first_line == json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")


@pytest.mark.parametrize("saved, loader", [(s, k) for s in sorted(SAVED) for k in sorted(SAVED)
                                           if s != k])
def test_class_load_rejects_other_kind(tmp_path, saved, loader):
    path = tmp_path / f"{saved}.dpc"
    SAVED[saved][0]().save(path)
    with pytest.raises(containers.ContainerError, match=f"{saved}.dpc") as info:
        type(SAVED[loader][0]()).load(path)
    assert repr(saved) in str(info.value) and repr(loader) in str(info.value)


def test_header_field_missing_from_kinded_container_rejected(tmp_path):
    path = tmp_path / "bad.dpc"
    path.write_bytes(b'{"dtype": "f32le", "kind": "pose", "T": 1, "joints": 4}\n'
                     + b"\x00" * 48)
    with pytest.raises(containers.ContainerError, match="bad.dpc: header missing field 'dt'"):
        PoseSequence.load(path)


@pytest.mark.parametrize("size", ['"x"', "0", "-2", "1.5", "true"])
def test_bad_axis_size_named_with_file(tmp_path, size):
    path = tmp_path / "bad.dpc"
    path.write_bytes(b'{"dt": 0.1, "dtype": "f32le", "joints": 17, "kind": "pose", "T": '
                     + size.encode() + b"}\n")
    with pytest.raises(containers.ContainerError,
                       match="bad.dpc: field 'T' must be a positive integer"):
        PoseSequence.load(path)


@pytest.mark.parametrize("save", [
    lambda p: BasebandSignal(np.zeros(0), 1e3).save(p),
    lambda p: containers.write_array(p, "spectrogram", np.zeros((4, 0)), dt=0.1,
                                     doppler_min_hz=-1.0, doppler_max_hz=1.0),
], ids=["signal-n", "spectrogram-T"])
def test_zero_size_array_rejected_on_write(tmp_path, save):
    path = tmp_path / "empty.dpc"
    with pytest.raises(containers.ContainerError,
                       match="empty.dpc: field '(n|T)' must be a positive integer, got 0"):
        save(path)
    assert not path.exists()


def with_last_value(path, value=np.nan):
    """Rewrite a container with its payload's last float32, the imaginary part
    of a signal's last sample, set to `value`; the header is kept."""
    header, payload = containers.read_container(path)
    payload = payload.copy()
    payload.view(np.float32)[-1] = value
    containers.write_container(path, header, payload)


def with_header(path, **fields):
    """Rewrite a container with `fields` set in its header; the payload is kept."""
    header, payload = containers.read_container(path)
    containers.write_container(path, {**header, **fields}, payload)


NON_FINITE = {"pose": "pose positions must be finite",
              "signal": "signal samples must be finite",
              "spectrogram": "spectrogram values must be finite and non-negative",
              "checkpoint": "payload holds a non-finite value"}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind", sorted(SAVED) + ["checkpoint"])
def test_non_finite_value_rejected_naming_file(tmp_path, kind, value):
    path = tmp_path / f"{kind}.dpc"
    if kind == "checkpoint":
        OptModel(seed=0).save(path)
        load = OptModel.load
    else:
        saved = SAVED[kind][0]()
        saved.save(path)
        load = type(saved).load
    load(path)
    with_last_value(path, value)
    with pytest.raises(containers.ContainerError,
                       match=f"^{re.escape(str(path))}: {NON_FINITE[kind]}$"):
        load(path)


META = {"pose": ("dt",), "signal": ("sample_rate_hz", "start_time_s"),
        "spectrogram": ("dt", "doppler_min_hz", "doppler_max_hz")}
BAD_VALUES = [
    *[(kind, {key: None}, r"float\(\) argument must be a string or a (real )?number")
      for kind in sorted(META) for key in META[kind]],
    *[(kind, {key: "x"}, "could not convert string to float: 'x'$")
      for kind in sorted(META) for key in META[kind]],
    ("pose", {"dt": -0.1}, "dt must be positive, got -0.1$"),
    ("signal", {"sample_rate_hz": 0}, "sample_rate_hz must be positive$"),
    ("spectrogram", -1.0, "spectrogram values must be finite and non-negative$"),
    ("spectrogram", {"doppler_min_hz": -10.0, "doppler_max_hz": 12.0},
     "doppler_axis must be symmetric around 0$"),
]


@pytest.mark.parametrize("kind, bad, message", BAD_VALUES, ids=[
    f"{kind}-" + ("cell" if isinstance(bad, float) else
                  "-".join(f"{k}={v}" for k, v in bad.items()))
    for kind, bad, _ in BAD_VALUES])
def test_rejected_value_names_file(tmp_path, kind, bad, message):
    # the class owns the value rules; its rejection of a file's meta or
    # payload is a ContainerError that starts with the file's path
    path = tmp_path / f"{kind}.dpc"
    saved = SAVED[kind][0]()
    saved.save(path)
    if isinstance(bad, float):
        with_last_value(path, bad)
    else:
        with_header(path, **bad)
    with pytest.raises(containers.ContainerError, match=f"^{re.escape(str(path))}: {message}"):
        type(saved).load(path)
