"""Event-driven Slurm-like scheduler simulator.

The paper's queue-wait results (Fig. 3b, Sec. V) emerge from running
the calibrated workload through this simulator on the modeled cluster:

* :mod:`repro.slurm.job` — job requests, states, exit conditions.
* :mod:`repro.slurm.events` — the discrete-event loop.
* :mod:`repro.slurm.queue` — FCFS queue with bounded backfill.
* :mod:`repro.slurm.placement` — topology-aware placement (dense
  multi-GPU placement, CPU-node co-location of GPU jobs).
* :mod:`repro.slurm.scheduler` — the simulator tying it together.
* :mod:`repro.slurm.accounting` — sacct-style log as a frame Table.
* :mod:`repro.slurm.interchange` — cluster islands stepped in lockstep
  with bounded-lag cross-partition state exchange, by one runner that
  hosts them in-process or in forked processes (``docs/scaling.md``).
* :mod:`repro.slurm.parallel` — the forked-host transport that runner
  uses for ``workers > 1``.
"""

from repro.slurm.accounting import accounting_table
from repro.slurm.events import Event, EventLoop
from repro.slurm.interchange import (
    InterchangeConfig,
    PartitionedResult,
    PartitionedRunner,
    migration_candidates,
    plan_migrations,
    route_requests,
    run_partitioned,
)
from repro.slurm.job import ExitCondition, JobRecord, JobRequest, JobState
from repro.slurm.placement import PlacementPolicy, check_spec_feasible
from repro.slurm.queue import JobQueue
from repro.slurm.scheduler import SchedulerConfig, SlurmSimulator

__all__ = [
    "Event",
    "EventLoop",
    "ExitCondition",
    "InterchangeConfig",
    "JobQueue",
    "JobRecord",
    "JobRequest",
    "JobState",
    "PartitionedResult",
    "PartitionedRunner",
    "PlacementPolicy",
    "SchedulerConfig",
    "SlurmSimulator",
    "accounting_table",
    "check_spec_feasible",
    "migration_candidates",
    "plan_migrations",
    "route_requests",
    "run_partitioned",
]
