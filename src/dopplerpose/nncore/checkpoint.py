"""Model checkpoints: the `checkpoint` container kind, concatenated f32le arrays.

The header records the model kind, the constructor `meta`, and the shape of
every parameter array and every state array (batch-norm running statistics),
in the model's own `params()`/`state_arrays()` order. `meta` holds only what
the model's `load` rebuilds it from: the constructor arguments that set the
array shapes, not how the model was trained (the training history has its own
file). That list of shapes is the whole layout contract: `load_checkpoint`
rebuilds the model from `meta` and restores it only if its arrays match the
header one for one. Older files also carry a `layers` field and more meta
keys (`seed`, `epochs`, `final_train_loss`); no reader reads them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .. import containers


def save_checkpoint(path: str | Path, *, kind: str, params, state=(),
                    meta: dict | None = None) -> None:
    """Persist every parameter array, then every state array, as float32.

    `params` may hold Tensors or numpy arrays; the header records each
    array's shape so loading is unambiguous.
    """
    arrays = [np.asarray(getattr(p, "data", p), dtype=np.float32) for p in params]
    state = [np.asarray(s, dtype=np.float32) for s in state]
    payload = np.concatenate([a.ravel() for a in arrays + state] or [np.zeros(0, np.float32)])
    containers.write_array(path, "checkpoint", payload, model=kind, meta=meta or {},
                           param_shapes=[list(a.shape) for a in arrays],
                           state_shapes=[list(a.shape) for a in state])


def _check_shapes(what: str, recorded: list, targets: list) -> None:
    if len(recorded) != len(targets):
        raise ValueError(f"checkpoint has {len(recorded)} {what} arrays, "
                         f"model needs {len(targets)}")
    for i, (shape, target) in enumerate(zip(recorded, targets)):
        if tuple(shape) != target.shape:
            raise ValueError(f"{what} array {i} has shape {tuple(shape)}, "
                             f"model needs {target.shape}")


def load_checkpoint(path: str | Path, kind: str, build):
    """Rebuild a `kind` model with `build(meta)` and restore its arrays in place.

    A model owns no value rules, so the `containers.read_array` callback here
    rejects a non-finite value or a header mismatch (`params()`, then
    `state_arrays()`, in save order); every rejection names the file.
    """
    def restore(payload, header):
        if header.get("model") != kind:
            raise ValueError(f"not a {kind!r} checkpoint (model={header.get('model')!r})")
        meta = header["meta"]
        try:
            model = build(meta)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"cannot build a {kind!r} model from its meta: {exc}") from exc
        params = [p.data for p in model.params()]
        state = model.state_arrays()
        _check_shapes("parameter", header["param_shapes"], params)
        _check_shapes("state", header["state_shapes"], state)
        if payload.size != (expected := sum(a.size for a in params + state)):
            raise ValueError(f"payload has {payload.size} values, header promises {expected}")
        if not np.isfinite(payload).all():
            raise ValueError("payload holds a non-finite value")
        offset = 0
        for target in params + state:
            target[...] = payload[offset: offset + target.size].reshape(target.shape)
            offset += target.size
        return model

    return containers.read_array(path, "checkpoint", restore)
