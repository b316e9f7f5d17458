"""Vanilla (star-topology) federated learning baseline.

A single central server collects every client's model each round and
aggregates with a chosen rule — the comparison system of Table V and
Figure 3.  Sharing :class:`~repro.core.local.LocalTrainer` with ABD-HFL
guarantees the only difference between the two systems is the topology
and aggregation structure, not the SGD dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aggregation.base import Aggregator, get_aggregator
from repro.aggregation.matrix import ParameterMatrix
from repro.attacks.base import ModelAttack
from repro.core.config import TrainingConfig
from repro.core.local import LocalTrainer
from repro.data.dataset import Dataset
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.metrics import accuracy
from repro.nn.model import Sequential
from repro.core.pool import LocalFleet
from repro.parallel import resolve_workers
from repro.utils.seeding import SeedSequenceFactory

__all__ = ["VanillaRoundRecord", "VanillaFLTrainer"]


@dataclass
class VanillaRoundRecord:
    round_index: int
    test_accuracy: float
    test_loss: float
    mean_local_loss: float


class VanillaFLTrainer:
    """Centralised FedAvg-style training with a pluggable aggregation rule.

    Parameters
    ----------
    client_datasets:
        Per-client shards keyed by client id (poisoned shards included).
    byzantine:
        Ids of malicious clients (used only when ``model_attack`` is set;
        data poisoners need no flag here — their shards are poisoned).
    aggregator:
        Rule name (``"fedavg"``, ``"multikrum"``, ``"median"`` ...) or an
        :class:`~repro.aggregation.base.Aggregator` instance.
    workers:
        Process count for per-client local training
        (:mod:`repro.parallel`); ``None`` defers to ``REPRO_WORKERS``.
        Any count is bit-identical to the serial path.
    """

    def __init__(
        self,
        client_datasets: dict[int, Dataset],
        model_template: Sequential,
        config: TrainingConfig,
        test_set: Dataset,
        aggregator: str | Aggregator = "fedavg",
        aggregator_options: dict | None = None,
        byzantine: list[int] | None = None,
        model_attack: ModelAttack | None = None,
        seed: int = 0,
        workers: int | None = None,
    ) -> None:
        if not client_datasets:
            raise ValueError("at least one client dataset is required")
        self._seeds = SeedSequenceFactory(seed)
        self.config = config
        self.test_set = test_set
        self.byzantine = set(byzantine or [])
        unknown = self.byzantine - set(client_datasets)
        if unknown:
            raise ValueError(f"byzantine ids not among clients: {sorted(unknown)}")
        self.model_attack = model_attack
        if isinstance(aggregator, str):
            aggregator = get_aggregator(aggregator, **(aggregator_options or {}))
        self.aggregator = aggregator

        self.trainers = {
            cid: LocalTrainer(
                device_id=cid,
                dataset=ds,
                model=model_template.clone(),
                config=config,
                rng=self._seeds.generator("client", cid),
            )
            for cid, ds in client_datasets.items()
        }
        self._client_order = sorted(self.trainers)
        self.workers = resolve_workers(workers)
        self._eval_model = model_template.clone()
        self._fleet = LocalFleet(self.trainers, self._eval_model, self.workers)
        self._eval_loss = SoftmaxCrossEntropy()
        self.global_model = model_template.get_flat()
        self.history: list[VanillaRoundRecord] = []
        self.round_index = 0

    def run(self, n_rounds: int, eval_every: int = 1) -> list[VanillaRoundRecord]:
        if n_rounds <= 0:
            raise ValueError(f"n_rounds must be positive, got {n_rounds}")
        start = len(self.history)
        for _ in range(n_rounds):
            self.run_round(evaluate=(self.round_index % eval_every == 0))
        return self.history[start:]

    def close(self) -> None:
        """Shut down the parallel training pool, if one was created."""
        self._fleet.close()

    def __enter__(self) -> "VanillaFLTrainer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort: never raise at GC/shutdown
        try:
            self.close()
        except Exception:
            pass

    def run_round(self, evaluate: bool = True) -> VanillaRoundRecord:
        uploads, losses = self._fleet.train(
            [(cid, self.global_model, None) for cid in self._client_order]
        )

        if self.model_attack is not None and self.byzantine:
            honest = [c for c in self._client_order if c not in self.byzantine]
            if honest:
                honest_stack = np.stack([uploads[c] for c in honest])
                rng = self._seeds.generator("attack", self.round_index)
                malicious = self.model_attack(
                    honest_stack, len(self.byzantine), rng
                )
                for vector, cid in zip(malicious, sorted(self.byzantine)):
                    uploads[cid] = vector

        weights = np.array(
            [self.trainers[c].n_samples for c in self._client_order], dtype=np.float64
        )
        # Stack once into the fast-path matrix (kernels cached for the rule).
        matrix = ParameterMatrix(
            [uploads[c] for c in self._client_order], weights
        )
        self.global_model = self.aggregator(matrix)

        if evaluate:
            acc, loss = self._evaluate()
        else:
            acc, loss = float("nan"), float("nan")
        record = VanillaRoundRecord(
            round_index=self.round_index,
            test_accuracy=acc,
            test_loss=loss,
            mean_local_loss=float(np.mean(losses)) if losses else 0.0,
        )
        self.history.append(record)
        self.round_index += 1
        return record

    def _evaluate(self) -> tuple[float, float]:
        self._eval_model.set_flat(self.global_model)
        logits = self._eval_model.forward(self.test_set.X, train=False)
        loss = self._eval_loss.forward(logits, self.test_set.y)
        acc = accuracy(np.argmax(logits, axis=-1), self.test_set.y)
        return acc, loss
