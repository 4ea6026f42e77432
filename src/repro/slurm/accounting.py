"""Convert simulation records into an sacct-style accounting table.

This is the Slurm half of the paper's combined dataset: one row per
job with scheduler-visible fields (times, sizes, exit state).  The GPU
half comes from :mod:`repro.monitor` and the two are joined on
``job_id`` exactly as described in Sec. II ("both datasets are combined
using job Ids to create a single dataset").
"""

from __future__ import annotations

from typing import Iterable

from repro.frame import Table, TableBuilder
from repro.slurm.job import JobRecord

ACCOUNTING_COLUMNS = (
    "job_id", "user", "interface", "num_gpus", "cores", "memory_gb",
    "submit_time_s", "start_time_s", "end_time_s", "wait_time_s",
    "run_time_s", "wait_fraction", "num_nodes", "gpu_hours",
    "exit_condition", "lifecycle_class", "time_limit_s",
)


def accounting_table(records: Iterable[JobRecord]) -> Table:
    """Build the sacct-like table (one row per finished job).

    Values append straight into per-column accumulators — no
    intermediate row dicts, no per-column re-scan of the record list.
    """
    builder = TableBuilder(columns=ACCOUNTING_COLUMNS)
    data = {name: builder.accumulator(name) for name in ACCOUNTING_COLUMNS}
    for record in records:
        request = record.request
        data["job_id"].append(request.job_id)
        data["user"].append(request.user)
        data["interface"].append(request.interface)
        data["num_gpus"].append(request.num_gpus)
        data["cores"].append(request.cores)
        data["memory_gb"].append(request.memory_gb)
        data["submit_time_s"].append(request.submit_time_s)
        data["start_time_s"].append(record.start_time_s)
        data["end_time_s"].append(record.end_time_s)
        data["wait_time_s"].append(record.wait_time_s)
        data["run_time_s"].append(record.run_time_s)
        data["wait_fraction"].append(record.wait_fraction)
        data["num_nodes"].append(len(record.nodes))
        data["gpu_hours"].append(record.gpu_hours)
        data["exit_condition"].append(record.exit_condition.value)
        data["lifecycle_class"].append(record.lifecycle_class)
        data["time_limit_s"].append(request.time_limit_s)
    return builder.finish()

