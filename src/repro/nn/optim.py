"""Optimisers and learning-rate schedules.

Plain SGD matches the paper's Algorithm 2 (line 15); momentum is provided
for the extension experiments.  Updates are applied in place on the layer
parameter arrays — no reallocation per step.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.nn.model import Sequential

__all__ = ["LRSchedule", "ConstantLR", "StepDecayLR", "SGD"]


class LRSchedule(ABC):
    """Maps a step counter to a learning rate."""

    @abstractmethod
    def lr(self, step: int) -> float:
        ...


class ConstantLR(LRSchedule):
    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self._lr = float(lr)

    def lr(self, step: int) -> float:
        return self._lr


class StepDecayLR(LRSchedule):
    """Multiply the rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, lr: float, step_size: int, gamma: float = 0.5) -> None:
        if lr <= 0 or step_size <= 0 or not (0 < gamma <= 1):
            raise ValueError("invalid StepDecayLR parameters")
        self._lr = float(lr)
        self._step_size = int(step_size)
        self._gamma = float(gamma)

    def lr(self, step: int) -> float:
        return self._lr * self._gamma ** (step // self._step_size)


class SGD:
    """Stochastic gradient descent with optional classical momentum.

    Parameters
    ----------
    model:
        The model whose ``params``/``grads`` this optimiser drives.
    schedule:
        Learning-rate schedule (or a bare float for a constant rate).
    momentum:
        0.0 recovers the paper's plain SGD.
    weight_decay:
        L2 penalty coefficient added to gradients in place.
    """

    def __init__(
        self,
        model: Sequential,
        schedule: LRSchedule | float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if isinstance(schedule, (int, float)):
            schedule = ConstantLR(float(schedule))
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0.0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        self.model = model
        self.schedule = schedule
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        self._velocity: list[np.ndarray] | None = None
        if self.momentum > 0.0:
            self._velocity = [np.zeros_like(p) for p in model.params]

    def export_slots(self) -> tuple[int, "list[np.ndarray] | None"]:
        """The cross-round mutable state (schedule step counter and
        momentum buffers) for shipping across process boundaries.

        No defensive copies: the tuple is serialised immediately, so
        copying the momentum arrays first would only double the traffic.
        The caller must not mutate the returned buffers.
        """
        return self.step_count, self._velocity

    def import_slots(
        self, step_count: int, velocity: "list[np.ndarray] | None"
    ) -> None:
        """Adopt slots produced by :meth:`export_slots` on the far side.

        The arrays arrive freshly deserialised and unaliased, so they
        are adopted without copying.
        """
        self.step_count = int(step_count)
        if velocity is None:
            self._velocity = None
        else:
            self._velocity = [np.asarray(v, dtype=np.float64) for v in velocity]

    def step(self) -> float:
        """Apply one update; returns the learning rate used."""
        lr = self.schedule.lr(self.step_count)
        params = self.model.params
        grads = self.model.grads
        if self._velocity is None:
            for p, g in zip(params, grads):
                if self.weight_decay:
                    p -= lr * (g + self.weight_decay * p)
                else:
                    p -= lr * g
        else:
            for p, g, v in zip(params, grads, self._velocity):
                eff = g + self.weight_decay * p if self.weight_decay else g
                v *= self.momentum
                v += eff
                p -= lr * v
        self.step_count += 1
        return lr
