"""Figure 2: the pipeline learning workflow, measured.

Runs the event-driven protocol (:class:`repro.pipeline.event_run.
EventDrivenRun`) over an ECSM hierarchy with a slow, consensus-like
global phase and reports the overall efficiency indicator ν (Eq. 3,
:func:`repro.pipeline.overall.overall_efficiency`) plus the traffic the
run put on the wire.

:func:`run_pipeline_cell` is the single-cell primitive of the
``pipeline_timing`` scenario kind (``specs/pipeline.toml``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.pipeline.event_run import EventDrivenRun, TimingConfig
from repro.pipeline.overall import overall_efficiency
from repro.sim.latency import FixedLatency, LogNormalLatency
from repro.topology.tree import Hierarchy

__all__ = ["PipelineCell", "run_pipeline_cell"]


@dataclass
class PipelineCell:
    """Overall efficiency and traffic of one event-driven run."""

    flag_level: int
    global_delay: float
    n_rounds: int
    time_weighted: float
    unweighted_mean: float
    total_waiting: float
    total_overlapped: float
    traffic: str  # ChannelStats.summary(): model vs control traffic


def run_pipeline_cell(
    hierarchy: Hierarchy,
    flag_level: int,
    global_delay: float,
    n_rounds: int,
    seed: int,
) -> PipelineCell:
    """Simulate ``n_rounds`` of the pipelined protocol and aggregate ν."""
    timing = TimingConfig(
        local_compute=LogNormalLatency(median=10.0, sigma=0.3),
        partial_aggregate=FixedLatency(1.0),
        global_aggregate=FixedLatency(global_delay),
        link=FixedLatency(0.2),
    )
    run = EventDrivenRun(hierarchy, timing, flag_level=flag_level, seed=seed)
    result = overall_efficiency(run.run(n_rounds))
    return PipelineCell(
        flag_level=flag_level,
        global_delay=global_delay,
        n_rounds=n_rounds,
        time_weighted=result.time_weighted,
        unweighted_mean=result.unweighted_mean,
        total_waiting=result.total_waiting,
        total_overlapped=result.total_overlapped,
        traffic=run.channel.stats.summary(),
    )
