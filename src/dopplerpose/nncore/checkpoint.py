"""Model checkpoints: JSON manifest + concatenated f32le array payloads.

The manifest records the model kind, the constructor `meta`, and the shape of
every parameter array and every state array (batch-norm running statistics),
in the model's own `params()`/`state_arrays()` order. `meta` holds only what
the model's `load` rebuilds it from: the constructor arguments that set the
array shapes, not how the model was trained (the training history has its own
file). That list of shapes is the whole layout contract: `load_checkpoint`
rebuilds the model from `meta` and restores it only if its arrays match the
manifest one for one. Older files also carry a `layers` field and more meta
keys (`seed`, `epochs`, `final_train_loss`); no reader reads them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import containers


def save_checkpoint(path: str | Path, *, kind: str, params, state=(),
                    meta: dict | None = None) -> None:
    """Persist every parameter array, then every state array, as float32.

    `params` may hold Tensors or numpy arrays; the manifest records each
    array's shape so loading is unambiguous.
    """
    arrays = [np.asarray(getattr(p, "data", p), dtype=np.float32) for p in params]
    state = [np.asarray(s, dtype=np.float32) for s in state]
    header = {
        "kind": "checkpoint",
        "model": kind,
        "param_shapes": [list(a.shape) for a in arrays],
        "state_shapes": [list(a.shape) for a in state],
        "meta": meta or {},
        "dtype": "f32le",
    }
    payload = np.concatenate([a.ravel() for a in arrays + state]) if arrays + state \
        else np.zeros(0, dtype=np.float32)
    containers.write_container(path, header, payload)


def _check_shapes(path, what: str, recorded: list, targets: list) -> None:
    if len(recorded) != len(targets):
        raise ValueError(f"{path}: checkpoint has {len(recorded)} {what} arrays, "
                         f"model needs {len(targets)}")
    for i, (shape, target) in enumerate(zip(recorded, targets)):
        if tuple(shape) != target.shape:
            raise ValueError(f"{path}: {what} array {i} has shape {tuple(shape)}, "
                             f"model needs {target.shape}")


def load_checkpoint(path: str | Path, kind: str, build):
    """Rebuild a `kind` model with `build(meta)` and restore its arrays in place.

    It shares the `build` contract of `containers.read_array`; a model owns no
    value rules, so this reader rejects a non-finite value or a manifest
    mismatch (`params()`, then `state_arrays()`, in save order), naming the file.
    """
    header, payload = containers.read_container(path)
    if header.get("kind") != "checkpoint":
        raise containers.ContainerError(f"{path}: not a checkpoint container")
    if header.get("model") != kind:
        raise ValueError(f"{path}: not a {kind!r} checkpoint (model={header.get('model')!r})")
    try:
        model = build(header.get("meta", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: cannot build a {kind!r} model from its meta: {exc}") from exc
    params = [p.data for p in model.params()]
    state = model.state_arrays()
    _check_shapes(path, "parameter", header.get("param_shapes", []), params)
    _check_shapes(path, "state", header.get("state_shapes", []), state)
    expected = sum(a.size for a in params + state)
    if payload.size != expected:
        raise containers.ContainerError(
            f"{path}: payload has {payload.size} values, manifest promises {expected}")
    if not np.isfinite(payload).all():
        raise containers.ContainerError(f"{path}: payload holds a non-finite value")
    offset = 0
    for target in params + state:
        target[...] = payload[offset: offset + target.size].reshape(target.shape)
        offset += target.size
    return model
