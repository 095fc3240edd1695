"""The nncore substrate: reverse-mode gradients, layers, Adam, checkpoints.

Run:  python3 demos/05_autodiff.py
"""

import pathlib
import sys
import tempfile

import numpy as np

from dopplerpose import nncore as nn
from dopplerpose.nncore import Tensor
from dopplerpose.nncore import tensor as ops
from dopplerpose.poseopt import OptModel
from dopplerpose.velest import VelModel

# The finite-difference checker lives with the tests.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from gradcheck import check_gradients  # noqa: E402

# Tensors record the graph; backward() accumulates into .grad.
w = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True, dtype=np.float64)
x = Tensor(np.array([3.0, 4.0, 5.0]), dtype=np.float64)
loss = ops.tsum(ops.mul(w, x))
loss.backward()
print(f"d(sum(w*x))/dw = {w.grad}  (equals x)")

# Every layer's analytic gradient matches central finite differences.
rng = np.random.default_rng(0)
lstm = nn.LSTM(3, 4, num_layers=2, bidirectional=True, rng=rng, dtype=np.float64)
inp = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True, dtype=np.float64)
err = check_gradients(lambda: ops.tsum(ops.tanh(lstm(inp))), lstm.params() + [inp])
print(f"bi-LSTM gradient check vs finite differences: {err:.2e} relative error")

# Adam walks a quadratic bowl to the bottom.
p = Tensor(np.array([0.8, -0.6]), requires_grad=True, dtype=np.float64)
opt = nn.Adam([p], lr=0.01)
for i in range(500):
    opt.zero_grad()
    ops.tsum(ops.mul(p, p)).backward()
    opt.step()
print(f"|w| after 500 Adam steps from |w|=1: {np.linalg.norm(p.data):.4f}")

# First Adam step has magnitude exactly lr in each coordinate.
q = Tensor(np.array([0.0, 0.0]), requires_grad=True, dtype=np.float64)
opt2 = nn.Adam([q], lr=0.05)
q.grad = np.array([0.3, -200.0])
opt2.step()
print(f"first-step update: {q.data}  (is -lr * sign(grad))")

# A model checkpoint records every array's shape; loading rebuilds the model
# from its meta and restores the arrays only if every shape matches.
with tempfile.TemporaryDirectory() as tmp:
    path = pathlib.Path(tmp) / "opt_model.dpc"
    model = OptModel(seed=3)
    model.save(path)
    back = OptModel.load(path)
    exact = all(np.array_equal(a.data, b.data) for a, b in zip(model.params(), back.params()))
    print(f"checkpoint: {len(back.params())} parameter arrays restored, bit-exact: {exact}")
    try:
        VelModel.load(path)
    except ValueError as exc:
        print(f"VelModel.load refuses it: {str(exc).split(': ', 1)[1]}")
