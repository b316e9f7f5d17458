"""Sequential model container with flat-parameter views.

The federated stack treats every model as a single ``float64`` vector (the
"model update" the paper's aggregators consume).  :meth:`Sequential.get_flat`
and :meth:`Sequential.set_flat` convert between the layer-wise arrays and
that vector; :meth:`Sequential.clone` produces an architecture-identical
model sharing nothing with the original.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.check import sanitize
from repro.nn.layers import Layer, Linear, ReLU
from repro.utils.flatten import FlatSpec, flatten_arrays, unflatten_vector

__all__ = ["Sequential", "MLP"]


class Sequential:
    """A feed-forward stack of :class:`~repro.nn.layers.Layer` objects."""

    def __init__(self, layers: Sequence[Layer]) -> None:
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)
        self._spec = FlatSpec.from_arrays(self.params)

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray, train: bool = True) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train=train)
        sanitize.assert_finite(x, "forward output")
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_out = layer.backward(grad_out)
        sanitize.assert_finite(grad_out, "backward gradient")
        return grad_out

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Class predictions (argmax over logits) without caching."""
        return np.argmax(self.forward(x, train=False), axis=-1)

    # ------------------------------------------------------------------
    # parameters
    # ------------------------------------------------------------------
    @property
    def params(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.params)
        return out

    @property
    def grads(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.extend(layer.grads)
        return out

    @property
    def flat_spec(self) -> FlatSpec:
        return self._spec

    @property
    def n_params(self) -> int:
        return self._spec.total_size

    def get_flat(self, out: np.ndarray | None = None) -> np.ndarray:
        """Copy all parameters into one flat vector."""
        return flatten_arrays(self.params, out=out)

    def get_flat_grads(self, out: np.ndarray | None = None) -> np.ndarray:
        """Copy all gradients into one flat vector."""
        return flatten_arrays(self.grads, out=out)

    def set_flat(self, vector: np.ndarray) -> None:
        """Load parameters from a flat vector (copies into layer arrays)."""
        pieces = unflatten_vector(np.asarray(vector, dtype=np.float64), self._spec, copy=False)
        for dst, src in zip(self.params, pieces):
            np.copyto(dst, src)

    def clone(self) -> "Sequential":
        """Deep-copy this model (architecture and current weights)."""
        import copy

        return copy.deepcopy(self)


class MLP(Sequential):
    """Multi-layer perceptron: Linear/ReLU blocks + a Linear head.

    This is the "DNN model" of the paper's evaluation.  The default hidden
    sizes are small because the evaluation model is small; the aggregation
    stack is dimension-agnostic.

    Parameters
    ----------
    in_dim:
        Flattened input size (e.g. 784 for 28x28 images).
    hidden:
        Hidden layer widths, e.g. ``(64, 32)``.
    n_classes:
        Output logits count.
    rng:
        Initialiser randomness (determines the common initial model
        ``theta_G^(0)`` that every node starts from).
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        n_classes: int,
        rng: np.random.Generator,
    ) -> None:
        layers: list[Layer] = []
        prev = in_dim
        for width in hidden:
            layers.append(Linear(prev, width, rng, init="he"))
            layers.append(ReLU())
            prev = width
        layers.append(Linear(prev, n_classes, rng, init="glorot"))
        super().__init__(layers)
        self.in_dim = in_dim
        self.hidden = tuple(hidden)
        self.n_classes = n_classes
