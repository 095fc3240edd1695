"""Minimal differentiable-computation substrate: tensors with reverse-mode
gradients, the conv/recurrent layer set, the `Adam` optimizer, and checkpoint
IO.

After `backward` only leaf tensors (parameters, inputs) hold a `.grad`;
`Adam` keeps its moment buffers itself and updates the parameters in place.
Layers hold parameters (batch norm also its running statistics); batch norm
applies its ReLU itself, and the other activations are the `relu`/`tanh`
ops. A model is persisted as its `params()` and `state_arrays()` lists (see
`checkpoint`): `save_checkpoint` records their shapes, and `load_checkpoint`
rebuilds the model from its constructor meta and restores the arrays only
when every shape matches.
"""

from .tensor import (  # noqa: F401
    Tensor,
    absolute,
    add,
    batch_norm_relu,
    concat,
    conv1d,
    div,
    getitem,
    lstm_layer,
    matmul,
    mul,
    no_grad,
    power,
    relu,
    reshape,
    sqrt,
    tanh,
    tmean,
    transpose,
    tsum,
)
from .layers import BatchNorm1d, Conv1d, LSTM, Linear  # noqa: F401
from .optim import Adam  # noqa: F401
from .checkpoint import load_checkpoint, save_checkpoint  # noqa: F401
