"""Which calls the traced pass brackets, and the per-layer metrics it
derives from the recorded spans.

One layer = one ``src/repro`` module.  Every span is opened from here,
around a call *into* the layer's public function; worker-process
internals of the pooled workload are therefore out of reach by design
(that workload reports the parent-side ``pool.*`` view, and ``local.*``
reads zero because the parent never enters ``LocalTrainer.train_round``).

All ``*_s`` layer metrics are totals over the workload's timed rounds of
the traced pass (divide by the round count for a per-round figure), so
the self times add up to ``trainer.round_s``.  A count of zero means the
layer was not entered on this workload.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from typing import Any, Iterator

import numpy as np

from spans import COUNTS, END, NAME, PARENT, ROUND, START, Recorder, Span, self_times

__all__ = ["instrumented", "layer_metrics", "timed_total"]


def _stack_shape(args: tuple, result: Any, seen: Any) -> dict:
    updates = args[1]
    rows, dim = np.shape(getattr(updates, "data", updates))
    return {"rows": int(rows), "dim": int(dim)}


def _agree_counts(args: tuple, result: Any, seen: Any) -> dict:
    from repro.check.invariants import acs_subset_size, max_faulty

    counts = {
        "model_messages": int(result.cost.model_messages),
        "scalar_messages": int(result.cost.scalar_messages),
        "excluded": int(result.n_excluded),
        "aba_rounds": int(result.info.get("aba_rounds", 0)),
    }
    subset = result.info.get("subset")
    if subset is not None:  # an ACS execution: |S| - (n - f), must be >= 0
        n = int(result.accepted.shape[0])
        counts["subset_margin"] = len(subset) - acs_subset_size(n, max_faulty(n))
    return counts


@contextmanager
def instrumented(rec: Recorder) -> Iterator[None]:
    """Bracket every layer's entry point for the duration of the block;
    the originals are restored on the way out, exception or not."""
    import repro.core.trainer as trainer_module
    from repro.aggregation.base import Aggregator
    from repro.attacks.base import ModelAttack
    from repro.consensus.base import ConsensusProtocol
    from repro.core.local import LocalTrainer
    from repro.core.pool import LocalTrainingPool
    from repro.nn.model import Sequential
    from repro.nn.optim import SGD
    from repro.sim.engine import Simulator

    try:
        rec.wrap(
            trainer_module.ABDHFLTrainer,
            "run_round",
            "trainer.run_round",
            counts=lambda a, record, s: {"model_messages": int(record.model_messages)},
        )
        rec.wrap(LocalTrainer, "train_round", "local.train_round")
        rec.wrap(Sequential, "forward", "nn.forward")
        rec.wrap(Sequential, "backward", "nn.backward")
        rec.wrap(SGD, "step", "nn.optim_step")
        rec.wrap(ModelAttack, "__call__", "attacks.apply")
        rec.wrap(Aggregator, "__call__", "aggregation.rule", counts=_stack_shape)
        # The names the trainer module bound at import are the calls the
        # trainer makes; patching the defining module would miss them.
        rec.wrap(trainer_module, "incremental_from", "aggregation.build")
        rec.wrap(trainer_module, "ParameterMatrix", "aggregation.build")
        rec.wrap(ConsensusProtocol, "agree", "consensus.agree", counts=_agree_counts)
        rec.wrap(
            Simulator,
            "run",
            "sim.run",
            before=lambda a: a[0].events_processed,
            counts=lambda a, r, seen: {"events": a[0].events_processed - seen},
        )
        rec.wrap(
            LocalTrainingPool,
            "__init__",
            "pool.spawn",
            counts=lambda a, r, s: {
                "shm": int(a[0].uses_shm),
                "rows": len(a[2]),
                "dim": int(a[1].get_flat().size),
            },
        )
        rec.wrap(
            LocalTrainingPool,
            "train_round",
            "pool.train_round",
            counts=lambda a, r, s: {"jobs": len(a[1])},
        )
        rec.wrap(LocalTrainingPool, "close", "pool.close")
        yield
    finally:
        rec.restore()


def timed_total(spans: list[Span], name: str) -> float:
    """Summed duration of the ``name`` spans of the timed rounds."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name and s[ROUND] >= 1)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    local_iterations: int,
    workers: int,
    traced_round_wall_s: list[float],
    untraced: dict,
    serial_local_s_per_round: float | None = None,
) -> dict[str, float]:
    """The per-layer table of one traced pass.

    ``traced_round_wall_s`` is the runner's own clock around each timed
    round of the traced pass (what ``trace.coverage`` is checked
    against); ``untraced`` is the result of an untraced run of the same
    workload and seed (tail latency, memory, tracing overhead);
    ``serial_local_s_per_round`` is ``fleet512``'s per-round
    ``local.train_round_s``, given only for the pooled workload.
    """
    selfs = self_times(spans)
    dur: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    once: dict[str, float] = {}  # set-up / teardown spans, any round
    counts: dict[str, list[dict]] = {}
    rule_ms: list[float] = []
    agree_ms: list[float] = []
    pool_round_s: list[float] = []
    first_pool_round_s = 0.0
    spawn: dict = {}
    eval_s = validator_s = 0.0
    under_agree = [False] * len(spans)
    for i, span in enumerate(spans):
        name, length, parent = span[NAME], span[END] - span[START], span[PARENT]
        if parent >= 0:
            under_agree[i] = (
                spans[parent][NAME] == "consensus.agree" or under_agree[parent]
            )
        if span[ROUND] < 1:  # set-up, warm-up round, teardown
            once[name] = once.get(name, 0.0) + length
            if name == "pool.train_round":
                first_pool_round_s = length
            elif name == "pool.spawn":
                spawn = span[COUNTS]
            continue
        dur[name] = dur.get(name, 0.0) + length
        own[name] = own.get(name, 0.0) + selfs[i]
        calls[name] = calls.get(name, 0) + 1
        if span[COUNTS]:
            counts.setdefault(name, []).append(span[COUNTS])
        if name == "aggregation.rule":
            rule_ms.append(1e3 * length)
        elif name == "consensus.agree":
            agree_ms.append(1e3 * length)
        elif name == "pool.train_round":
            pool_round_s.append(length)
        elif name == "nn.forward":
            if under_agree[i]:
                validator_s += length
            elif spans[parent][NAME] == "trainer.run_round":
                eval_s += length

    def tally(name: str, key: str) -> list[int]:
        return [c[key] for c in counts.get(name, ()) if key in c]

    rounds = len(traced_round_wall_s)
    rows = tally("aggregation.rule", "rows")
    dims = tally("aggregation.rule", "dim")
    messages = tally("trainer.run_round", "model_messages")
    margins = tally("consensus.agree", "subset_margin")
    sgd_steps = calls.get("local.train_round", 0) * local_iterations
    sim_s = dur.get("sim.run", 0.0)
    events = sum(tally("sim.run", "events"))
    pool_s = dur.get("pool.train_round", 0.0)
    speedup = 0.0
    if serial_local_s_per_round is not None and pool_s > 0:
        speedup = serial_local_s_per_round / (pool_s / rounds)
    traced_wall = sum(traced_round_wall_s)
    untraced_wall = sum(untraced["round_wall_s"])
    return {
        "trainer.round_s": dur.get("trainer.run_round", 0.0),
        "trainer.self_s": own.get("trainer.run_round", 0.0),
        "trainer.eval_s": eval_s,
        "trainer.model_messages_per_round": (
            statistics.fmean(messages) if messages else 0.0
        ),
        "trainer.round_ms_p90": 1e3
        * statistics.quantiles(untraced["round_wall_s"], n=10)[-1],
        "local.train_round_s": dur.get("local.train_round", 0.0),
        "local.self_s": own.get("local.train_round", 0.0),
        "local.calls": calls.get("local.train_round", 0),
        "local.us_per_sgd_step": (
            1e6 * dur.get("local.train_round", 0.0) / sgd_steps if sgd_steps else 0.0
        ),
        "nn.forward_s": dur.get("nn.forward", 0.0),
        "nn.backward_s": dur.get("nn.backward", 0.0),
        "nn.optim_step_s": dur.get("nn.optim_step", 0.0),
        "nn.forward_calls": calls.get("nn.forward", 0),
        "nn.backward_calls": calls.get("nn.backward", 0),
        "attacks.apply_s": dur.get("attacks.apply", 0.0),
        "attacks.calls": calls.get("attacks.apply", 0),
        "aggregation.build_s": dur.get("aggregation.build", 0.0),
        "aggregation.rule_s": own.get("aggregation.rule", 0.0),
        "aggregation.calls": calls.get("aggregation.rule", 0),
        "aggregation.ms_per_call_p50": _median(rule_ms),
        "aggregation.rows_per_call": statistics.fmean(rows) if rows else 0.0,
        "aggregation.bytes_in": sum(r * d * 8 for r, d in zip(rows, dims)),
        "consensus.agree_s": dur.get("consensus.agree", 0.0),
        "consensus.self_s": own.get("consensus.agree", 0.0),
        "consensus.calls": calls.get("consensus.agree", 0),
        "consensus.agree_ms_p50": _median(agree_ms),
        "consensus.validator_s": validator_s,
        "consensus.model_messages": sum(tally("consensus.agree", "model_messages")),
        "consensus.scalar_messages": sum(tally("consensus.agree", "scalar_messages")),
        "consensus.excluded": sum(tally("consensus.agree", "excluded")),
        "consensus.aba_rounds": sum(tally("consensus.agree", "aba_rounds")),
        "consensus.acs_min_subset_margin": min(margins) if margins else 0,
        "sim.run_s": sim_s,
        "sim.events": events,
        "sim.events_per_s": events / sim_s if sim_s > 0 else 0.0,
        # One-off cost of bringing the pool up: the constructor, plus what
        # the cold first dispatch (workers still importing and building
        # replicas) takes beyond a steady one.
        "pool.spawn_s": once.get("pool.spawn", 0.0)
        + max(0.0, first_pool_round_s - _median(pool_round_s)),
        "pool.train_round_s": pool_s,
        "pool.jobs": sum(tally("pool.train_round", "jobs")),
        "pool.close_s": once.get("pool.close", 0.0),
        "pool.speedup": speedup,
        "pool.efficiency": speedup / workers,
        "shm.used": spawn.get("shm", 0),
        "shm.bytes_per_round": 2 * spawn.get("rows", 0) * spawn.get("dim", 0) * 8,
        "setup.import_s": once.get("setup.import", 0.0),
        "topology.build_s": once.get("topology.build", 0.0),
        "data.generate_s": once.get("data.generate", 0.0),
        "data.partition_s": once.get("data.partition", 0.0),
        "trainer.init_s": once.get("trainer.init", 0.0),
        "setup.warmup_round_s": once.get("setup.warmup_round", 0.0),
        "mem.peak_rss_self_mb": untraced["peak_rss_self_mb"],
        "mem.peak_rss_children_mb": untraced["peak_rss_children_mb"],
        "trace.coverage": sum(selfs[i] for i, s in enumerate(spans) if s[ROUND] >= 1)
        / traced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
    }
