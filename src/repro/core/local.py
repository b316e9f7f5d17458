"""Local model training (Algorithm 2).

A :class:`LocalTrainer` owns one bottom device's dataset and a private
model instance; each global round it loads the flag (or global) model,
runs ``T`` local SGD iterations — one minibatch step per iteration — and
returns the trained flat vector.  A mid-training global-model arrival is
merged with the correction factor exactly at the configured iteration
(Alg. 2, lines 16–18).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import TrainingConfig
from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.model import Sequential
from repro.nn.optim import SGD

__all__ = ["GlobalArrival", "LocalTrainer"]


@dataclass(frozen=True)
class GlobalArrival:
    """A global model arriving mid-training (pipeline mode).

    Attributes
    ----------
    iteration:
        Local iteration index *before* which the merge is applied.
    vector:
        The global model's flat parameters.
    alpha:
        Correction factor from the active policy (Eq. 1).
    """

    iteration: int
    vector: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError(f"iteration must be non-negative, got {self.iteration}")
        if not (0.0 < self.alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


class LocalTrainer:
    """One bottom-level device's training loop.

    Parameters
    ----------
    device_id:
        The owning device (for diagnostics).
    dataset:
        The device's training shard — already poisoned if the device is a
        data-poisoning adversary; the trainer itself is oblivious
        (Appendix D: poisoning nodes follow the protocol honestly).
    model:
        Private model instance (weights overwritten every round).
    config:
        SGD knobs.
    rng:
        The device's private randomness (batch sampling).
    """

    def __init__(
        self,
        device_id: int,
        dataset: Dataset,
        model: Sequential,
        config: TrainingConfig,
        rng: np.random.Generator,
    ) -> None:
        if len(dataset) == 0:
            raise ValueError(f"device {device_id} has an empty dataset")
        self.device_id = device_id
        self.dataset = dataset
        self.model = model
        self.config = config
        self.rng = rng
        self.loss_fn = SoftmaxCrossEntropy()
        self.optimizer = SGD(
            model,
            config.learning_rate,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
        self.last_losses: list[float] = []

    @property
    def n_samples(self) -> int:
        return len(self.dataset)

    def _sample_batch(self) -> tuple[np.ndarray, np.ndarray]:
        n = len(self.dataset)
        batch = min(self.config.batch_size, n)
        idx = self.rng.choice(n, size=batch, replace=False)
        return self.dataset.X[idx], self.dataset.y[idx]

    def export_state(self) -> tuple[object, ...]:
        """The state that persists across rounds, as a positional tuple.

        ``train_round`` overwrites every model parameter via
        ``set_flat``, so the only cross-round state a device carries is
        its PCG64 stream *position* (two integers plus the cached-uint32
        pair) and its optimiser slots (step counter, momentum buffers).
        :mod:`repro.core.pool` round-trips this tuple to spawn workers
        and back so the parent-side trainer stays bit-identical to an
        in-process run.  No defensive copies: the tuple is serialised
        immediately.
        """
        st = self.rng.bit_generator.state
        inner = st["state"]
        step_count, velocity = self.optimizer.export_slots()
        return (
            inner["state"],
            inner["inc"],
            st["has_uint32"],
            st["uinteger"],
            step_count,
            velocity,
        )

    def import_state(self, state: tuple[object, ...]) -> None:
        """Restore a tuple taken by :meth:`export_state`."""
        position, inc, has_uint32, uinteger, step_count, velocity = state
        self.rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": position, "inc": inc},
            "has_uint32": has_uint32,
            "uinteger": uinteger,
        }
        self.optimizer.import_slots(step_count, velocity)  # type: ignore[arg-type]

    def train_round(
        self,
        start_vector: np.ndarray,
        global_arrival: GlobalArrival | None = None,
    ) -> np.ndarray:
        """Run ``T`` local iterations from ``start_vector``; return params.

        ``global_arrival`` (pipeline mode) triggers the Eq. 1 merge before
        the specified iteration; an arrival index at or beyond ``T``
        applies the merge after the final iteration, modelling a global
        model that lands just as the round ends.
        """
        self.model.set_flat(start_vector)
        self.last_losses = []
        merged = global_arrival is None
        for t in range(self.config.local_iterations):
            if not merged and global_arrival.iteration <= t:
                self._merge_global(global_arrival)
                merged = True
            X, y = self._sample_batch()
            logits = self.model.forward(X, train=True)
            loss = self.loss_fn.forward(logits, y)
            self.model.backward(self.loss_fn.backward())
            self.optimizer.step()
            self.last_losses.append(loss)
        if not merged:
            self._merge_global(global_arrival)
        return self.model.get_flat()

    def _merge_global(self, arrival: GlobalArrival) -> None:
        """Apply Eq. 1: ``theta <- alpha * theta_G + (1 - alpha) * theta``."""
        current = self.model.get_flat()
        merged = arrival.alpha * arrival.vector + (1.0 - arrival.alpha) * current
        self.model.set_flat(merged)
