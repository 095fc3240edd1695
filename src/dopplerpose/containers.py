"""Self-describing binary containers: one UTF-8 JSON header line + raw payload.

Every on-disk artifact (poses, baseband signals, spectrograms, model
checkpoints) uses the same layout so files stay greppable and the payload
stays mmap-friendly:

    {"version": 1, "kind": "pose", ...}\n
    <raw little-endian payload bytes>

Every kind is written by `write_array` and read by `read_array`, which checks
the format alone (kind, dtype, axis fields, payload size) and returns what the
reader's `build(values, header)` makes (`number` reads a numeric meta field);
the reader owns every value rule. What either rejects is a ContainerError
naming the file. `KINDS` owns each kind's axes (header field names, or a fixed
length), payload dtype and constant fields. The meta fields are what each
writer passes (PoseSequence, BasebandSignal, Spectrogram, `save_checkpoint`):

    kind         axes               dtype  constant        meta
    pose         (T, joints, 3)     f32le  layout "T×J×3"  dt
    signal       (n,)               c64le                  sample_rate_hz
    spectrogram  (doppler_bins, T)  f32le                  dt, doppler_min_hz, doppler_max_hz
    checkpoint   none: flat         f32le                  model, meta, param_shapes, state_shapes

Round-trips are bit-exact: reading a file and writing it back produces the
identical byte string.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FORMAT_VERSION = 1

_DTYPES = {
    "f32le": np.dtype("<f4"),
    "c64le": np.dtype("<c8"),
}

# kind -> (axes, dtype tag, constant fields)
KINDS = {
    "pose": (("T", "joints", 3), "f32le", {"layout": "T×J×3"}),
    "signal": (("n",), "c64le", {}),
    "spectrogram": (("doppler_bins", "T"), "f32le", {}),
    "checkpoint": ((), "f32le", {}),
}


class ContainerError(ValueError):
    """Raised for malformed container files."""


def write_container(path: str | Path, header: dict, payload: np.ndarray) -> None:
    """Write a header dict plus a raw array payload.

    The header's "dtype" field decides the on-disk element type; the payload
    is cast (C-order) if needed.
    """
    header = dict(header)
    header.setdefault("version", FORMAT_VERSION)
    dtype_tag = header.get("dtype")
    if dtype_tag not in _DTYPES:
        raise ContainerError(f"unsupported dtype tag: {dtype_tag!r}")
    raw = np.ascontiguousarray(payload, dtype=_DTYPES[dtype_tag])
    line = json.dumps(header, ensure_ascii=False, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        fh.write(raw.tobytes())


def read_container(path: str | Path) -> tuple[dict, np.ndarray]:
    """Read a container, returning (header, flat payload array)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    nl = blob.find(b"\n")
    if nl < 0:
        raise ContainerError(f"{path}: missing header line")
    try:
        header = json.loads(blob[:nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: bad JSON header: {exc}") from exc
    if not isinstance(header, dict):
        raise ContainerError(f"{path}: header is a JSON {type(header).__name__}, not an object")
    dtype_tag = header.get("dtype")
    if dtype_tag not in _DTYPES:
        raise ContainerError(f"{path}: unsupported dtype tag {dtype_tag!r}")
    body, dtype = blob[nl + 1 :], _DTYPES[dtype_tag]
    if len(body) % dtype.itemsize:
        raise ContainerError(f"{path}: payload of {len(body)} bytes is not a whole number "
                             f"of {dtype_tag} values ({dtype.itemsize} bytes each)")
    return header, np.frombuffer(body, dtype=dtype)


def write_array(path: str | Path, kind: str, values, **meta) -> None:
    """Persist `values`, shaped as the kind's axes, with the kind's `meta` fields."""
    axes, dtype_tag, constant = KINDS[kind]
    sizes = {a: int(n) for a, n in zip(axes, np.shape(values)) if isinstance(a, str)}
    for a, n in sizes.items():
        if n < 1:  # `read_array` would reject the file
            raise ContainerError(f"{path}: field {a!r} must be a positive integer, got {n}")
    write_container(path, {"kind": kind, "dtype": dtype_tag, **constant, **meta, **sizes},
                    values)


def read_array(path: str | Path, kind: str, build):
    """Return `build(values shaped by the kind's axes, header)` for a `kind` file;
    a format mismatch, or a KeyError, TypeError or ValueError out of `build`,
    raises a ContainerError that starts with the file's path.
    """
    axes, dtype_tag, _ = KINDS[kind]
    header, payload = read_container(path)
    try:
        if header.get("kind") != kind or header["dtype"] != dtype_tag:
            raise ValueError(f"expected a {kind!r} {dtype_tag} container, found "
                             f"kind={header.get('kind')!r} dtype={header['dtype']!r}")
        # a kind without axes (a checkpoint) hands `build` its payload flat
        shape = tuple(a if isinstance(a, int) else header[a] for a in axes) or payload.shape
        for a, n in zip(axes, shape):
            if type(n) is not int or n < 1:
                raise ValueError(f"field {a!r} must be a positive integer, got {n!r}")
        if payload.size != (size := math.prod(shape)):
            raise ValueError(f"payload has {payload.size} values, header promises {size}")
        return build(payload.reshape(shape), header)
    except KeyError as exc:
        raise ContainerError(f"{path}: header missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"{path}: {exc}") from exc


def number(header: dict, name: str) -> float:
    """The header's `name` field as a float: a JSON number, not a bool or a string."""
    value = header[name]
    if type(value) not in (int, float):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    return float(value)
