"""Cross-partition interchange: K cluster islands stepped in lockstep.

Every simulation of the machine is a run over K **islands** — contiguous
node ranges (see :mod:`repro.cluster.partition` and
``docs/scaling.md``), each with its own
:class:`~repro.slurm.scheduler.SlurmSimulator` event loop; the whole
machine is simply K = 1.  :class:`PartitionedRunner` steps the islands
in lockstep **epochs**: every island advances to the same time
boundary, then an interchange step exchanges cross-partition state
before the next epoch starts.  Two couplings are supported:

* **global fair-share** — each island's
  :class:`~repro.slurm.policies.FairSharePolicy` drains the GPU hours
  its users consumed during the epoch; the deltas are merged into one
  global ledger that is pushed back to every island, so priority
  decisions lag global reality by at most one epoch;
* **migration / spillover** — jobs queued longer than
  ``migrate_after_s`` are moved (once) to the least-loaded island that
  can ever place them, resubmitted at the epoch boundary.

With both couplings off (the default) the islands are independent and
the epoch loop runs a single round in which each island runs to
completion.

The parent's epoch loop is written once.  It drives *hosts*: an
:class:`IslandHost` steps the islands it owns through ``begin →
advance(until) → exchange → finalize`` and the runner's
``island_finish`` hook.  One in-process host owns every island when
``workers <= 1``, when there is one island, or when a pool cannot
start; otherwise ``min(workers, K)`` forked hosts run the same class
behind a pipe (:mod:`repro.slurm.parallel`).  Serial and forked runs
are therefore bit-identical by construction
(``tests/slurm/test_parallel_interchange.py`` pins it event for
event).

The hosts get their jobs one of two ways.  :meth:`PartitionedRunner.run`
routes an explicit request list in the parent.  A dataset build calls
:meth:`PartitionedRunner.draw` instead: the hosts start empty and draw
the GPU cohorts routed to their own islands, so the parent never holds
an activity model; it draws only the CPU shard, numbers every job and
sends each host its ids and CPU jobs.  Both feed the same epoch loop
(:meth:`PartitionedRunner.finish`).

This module is about *simulation structure*; the similarly named
:mod:`repro.interchange` maps datasets onto the public MIT Supercloud
CSV layout and is unrelated.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from repro.cluster.partition import Partition, PartitionLayout
from repro.cluster.spec import ClusterSpec, supercloud_spec
from repro.errors import PlacementError, SchedulerError
from repro.slurm.job import JobRecord, JobRequest
from repro.slurm.policies import FairSharePolicy, make_policy
from repro.slurm.scheduler import SchedulerConfig, SimulationResult, SlurmSimulator

#: Attach per-island state (e.g. a monitoring collector) before ``begin``.
IslandSetup = Callable[[SlurmSimulator, Partition, dict], Any]
#: Produce the island's payload after ``finalize`` (tables, spill handles).
IslandFinish = Callable[[SlurmSimulator, Any, SimulationResult], Any]


@dataclass(frozen=True)
class InterchangeConfig:
    """How (and how often) islands exchange state."""

    #: Lockstep epoch length; cross-partition state lags by at most this.
    epoch_s: float = 6 * 3600.0
    #: Migrate queued jobs waiting longer than this to a less-loaded
    #: island (None disables migration).
    migrate_after_s: float | None = None
    #: Synchronise fair-share ledgers globally at epoch boundaries
    #: (requires ``SchedulerConfig(policy="fair_share")``).
    fair_share_sync: bool = False

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise SchedulerError(f"epoch_s must be positive, got {self.epoch_s}")
        if self.migrate_after_s is not None and self.migrate_after_s < 0:
            raise SchedulerError(
                f"migrate_after_s must be >= 0, got {self.migrate_after_s}"
            )

    @property
    def coupled(self) -> bool:
        """True when islands exchange state and must run in lockstep."""
        return self.fair_share_sync or self.migrate_after_s is not None


def route_requests(
    requests: list[JobRequest], num_partitions: int
) -> list[list[JobRequest]]:
    """Split requests into per-island buckets by cohort.

    Jobs carry their cohort in ``tags["cohort"]`` (set by the workload
    generator); a job without one falls back to ``job_id`` so
    hand-built request lists still route deterministically.
    """
    buckets: list[list[JobRequest]] = [[] for _ in range(num_partitions)]
    for request in requests:
        cohort = request.tags.get("cohort", request.job_id)
        buckets[int(cohort) % num_partitions].append(request)
    return buckets


def migration_candidates(
    queued: "Iterable[JobRequest]", boundary: float, threshold: float
) -> list[JobRequest]:
    """Jobs overdue for migration at this boundary, in job-id order.

    A job is overdue once it has queued longer than ``threshold`` and
    has not migrated before (no ping-pong).
    """
    return sorted(
        (
            request
            for request in queued
            if boundary - request.submit_time_s > threshold
            and not request.tags.get("migrated")
        ),
        key=lambda request: request.job_id,
    )


def plan_migrations(
    candidates: Sequence[Sequence[JobRequest]],
    queue_lengths: Sequence[int],
    island_specs: Sequence[ClusterSpec],
) -> list[tuple[int, JobRequest, int]]:
    """Deterministic migration plan over per-island candidate lists.

    Pure function of the epoch snapshot — per-island overdue candidates
    (already job-id sorted, see :func:`migration_candidates`), queue
    lengths, and static island specs — so the plan is the same however
    the islands are spread over host processes.  Returns ``(source,
    request, target)`` moves in application order.

    Scans islands in index order, candidates
    in job-id order, target = least-loaded feasible island strictly
    less loaded than the source (ties to the lower index).  Moving a
    job decrements only the source's load — the target receives it as
    a scheduled resubmission, not a queue entry, so target loads stay
    at their snapshot values until that target is itself the source.
    """
    from repro.slurm.placement import check_spec_feasible

    loads = list(queue_lengths)
    moves: list[tuple[int, JobRequest, int]] = []
    for source_index, overdue in enumerate(candidates):
        for request in overdue:
            source_load = loads[source_index]
            best: tuple[int, int] | None = None
            for index, spec in enumerate(island_specs):
                if index == source_index:
                    continue
                try:
                    check_spec_feasible(spec, request)
                except PlacementError:
                    continue
                load = loads[index]
                if load >= source_load:
                    continue
                if best is None or (load, index) < best:
                    best = (load, index)
            if best is None:
                continue
            moves.append((source_index, request, best[1]))
            loads[source_index] -= 1
    return moves


class DrawnJob(NamedTuple):
    """The parent's view of a GPU job an island host drew: its global
    id and size, enough to check that its island can place it."""

    job_id: int
    num_gpus: int


@dataclass
class PartitionedResult:
    """Per-island results plus the deterministic global merge."""

    layout: PartitionLayout
    results: list[SimulationResult]
    interchange: InterchangeConfig
    migrations: int = 0
    #: ``island_finish`` return values, one per island (None without a hook).
    extras: list = field(default_factory=list)
    #: Which hosts ran: ``"serial"`` (one in-process host) or ``"parallel"``.
    mode: str = "serial"
    #: Largest peak RSS of any process that hosted an island.
    island_peak_rss_bytes: float = 0.0

    def merged_records(self) -> list[JobRecord]:
        """All job records in global job-id order (node indices global)."""
        records = [record for result in self.results for record in result.records]
        records.sort(key=lambda record: record.request.job_id)
        return records

    def merged(self) -> SimulationResult:
        """One whole-machine-shaped result for downstream consumers."""
        return SimulationResult(
            records=self.merged_records(),
            makespan_s=max(result.makespan_s for result in self.results),
            events_processed=sum(r.events_processed for r in self.results),
            peak_queue_length=max(r.peak_queue_length for r in self.results),
            config=self.results[0].config,
            node_failures=sum(r.node_failures for r in self.results),
            jobs_killed_by_failures=sum(
                r.jobs_killed_by_failures for r in self.results
            ),
        )


class PartitionedRunner:
    """Run K islands through lockstep interchange epochs.

    ``workers`` bounds the host processes: with ``workers > 1`` and
    more than one island, ``min(workers, K)`` forked hosts run the
    islands, host ``h`` owning every island ``i`` with ``i % hosts ==
    h``; otherwise one in-process host owns them all.  Job records come
    back with **global** node indices.

    ``island_setup`` runs in the island's host before ``begin`` (the
    dataset build attaches a partition-local monitoring collector
    there); ``island_finish`` runs after ``finalize`` and returns the
    island's payload — materialized tables, or spill-directory handles
    in the streaming build.  Forked hosts must be able to pickle that
    payload.  ``island_context`` is handed to every setup call.
    ``return_records=False`` keeps job records out of the parent (the
    streaming build spills island-local accounting instead), so parent
    memory stays bounded by the interchange payload, not the trace.

    :meth:`run` simulates an explicit request list.  A dataset build
    instead calls :meth:`draw` (the hosts start and draw their own
    islands' jobs) and then :meth:`finish`; :meth:`close` reaps hosts
    a failure left running.
    """

    def __init__(
        self,
        layout: PartitionLayout,
        *,
        spec: ClusterSpec | None = None,
        config: SchedulerConfig | None = None,
        interchange: InterchangeConfig | None = None,
        workers: int | None = 1,
        island_setup: IslandSetup | None = None,
        island_finish: IslandFinish | None = None,
        island_context: dict | None = None,
        return_records: bool = True,
    ) -> None:
        # Imported lazily: repro.pipeline pulls the monitoring stack in,
        # which imports repro.slurm — a cycle at module-import time.
        from repro.pipeline.parallel import resolve_workers

        self.layout = layout
        self.spec = spec if spec is not None else supercloud_spec(layout.total_nodes)
        self.config = config if config is not None else SchedulerConfig()
        self.interchange = interchange if interchange is not None else InterchangeConfig()
        self.workers = resolve_workers(workers)
        self.island_setup = island_setup
        self.island_finish = island_finish
        self.island_context = island_context if island_context is not None else {}
        self.return_records = return_records
        if len(layout) > 1:
            if self.config.failure_model is not None:
                raise SchedulerError(
                    "failure injection is not supported in partitioned runs "
                    "(per-island failure streams would be correlated)"
                )
            if self.config.policy is not None and not isinstance(
                self.config.policy, str
            ):
                raise SchedulerError(
                    "partitioned runs need a policy registry name (each island "
                    "builds its own instance); got a policy object"
                )
        policy = self.config.policy
        if isinstance(policy, str):
            policy = make_policy(policy)
        if self.interchange.fair_share_sync and not isinstance(policy, FairSharePolicy):
            raise SchedulerError(
                'fair_share_sync requires SchedulerConfig(policy="fair_share")'
            )
        self._global_usage: dict[str, float] = {}
        self.migrations = 0
        self._hosts: list = []
        self._mode = "serial"

    # ------------------------------------------------------------------
    def run(self, requests: list[JobRequest]) -> PartitionedResult:
        """Simulate all requests across the islands to completion."""
        buckets = dict(enumerate(route_requests(requests, len(self.layout))))
        self._hosts, self._mode = self._start_hosts(buckets)
        return self.finish()

    def draw(self, config, check: Callable[[list], None]) -> int:
        """Start the hosts and have each draw its islands' jobs.

        Each host draws the GPU cohorts routed to its islands (cohort
        ``c`` to island ``c % K``, :func:`repro.workload.cohorts.draw_cohort`)
        while the parent draws the CPU shard; only submit times and GPU
        counts come back.  The parent numbers every job with
        :func:`~repro.workload.cohorts.assign_job_ids`, hands
        ``check`` the islands' buckets — each in job-id order, a
        :class:`DrawnJob` per GPU job and the island's CPU requests —
        and sends each host its ids and CPU jobs.  Returns the job
        count.  On any failure the hosts are reaped before it raises.
        """
        from repro.workload.cohorts import assign_job_ids, draw_cpu

        num = len(self.layout)
        self._hosts, self._mode = self._start_hosts({index: [] for index in range(num)})
        try:
            for host in self._hosts:
                host.send("draw", config)
            cpu = draw_cpu(config)
            drawn = {
                cohort: (times, gpus)
                for island, host in self._owners()
                for cohort, times, gpus in host.recv(island, 0)
            }
            cohorts = sorted(drawn)
            *cohort_ids, cpu_ids = assign_job_ids(
                [drawn[cohort][0] for cohort in cohorts]
                + [[request.submit_time_s for request in cpu]]
            )
            ids = dict(zip(cohorts, cohort_ids))
            cpu_jobs: list[list[JobRequest]] = [[] for _ in range(num)]
            for request, job_id in zip(cpu, cpu_ids.tolist()):
                request.job_id = job_id
                cpu_jobs[int(request.tags["cohort"]) % num].append(request)
            buckets = [list(jobs) for jobs in cpu_jobs]
            for cohort in cohorts:
                buckets[cohort % num].extend(
                    map(DrawnJob, ids[cohort].tolist(), drawn[cohort][1].tolist())
                )
            for bucket in buckets:
                bucket.sort(key=lambda job: job.job_id)
            check(buckets)
            for host in self._hosts:
                host.send("assign", {
                    index: ([ids[c] for c in range(index, len(cohorts), num)], cpu_jobs[index])
                    for index in host.islands
                })
            for island, host in self._owners():
                host.recv(island, 0)
        except BaseException:
            self.close(failed=True)
            raise
        return len(cpu) + sum(len(cohort) for cohort in cohort_ids)

    def finish(self) -> PartitionedResult:
        """Run the started hosts' islands through the epochs, then reap them."""
        failed = True
        try:
            replies = self._epochs()
            failed = False
        finally:
            self.close(failed)
        return PartitionedResult(
            layout=self.layout,
            results=[reply["result"] for reply in replies],
            interchange=self.interchange,
            migrations=self.migrations,
            extras=[reply["extra"] for reply in replies],
            mode=self._mode,
            island_peak_rss_bytes=max(reply["peak_rss_bytes"] for reply in replies),
        )

    def close(self, failed: bool = False) -> None:
        """Close every started host (killing it if the run failed)."""
        hosts, self._hosts = self._hosts, []
        for host in hosts:
            host.close(failed)

    def _owners(self) -> list[tuple[int, Any]]:
        """``(island, host)`` pairs in island-index order."""
        return sorted(
            ((index, host) for host in self._hosts for index in host.islands),
            key=lambda pair: pair[0],
        )

    def _start_hosts(self, buckets: dict[int, list]) -> tuple[list, str]:
        """Fork ``min(workers, K)`` hosts, or make one in-process host."""
        count = min(self.workers, len(self.layout))
        if count > 1:
            from repro.slurm.parallel import fork_hosts

            try:
                return fork_hosts(self, buckets, count), "parallel"
            except (ImportError, OSError):
                # A pool that cannot start degrades to the in-process
                # host (identical outputs; parallelism only saves time).
                pass
        from repro.obs.progress import get_sink

        sink = get_sink()
        beat = sink.update if sink is not None else None
        return [IslandHost(self, buckets, beat=beat)], "serial"

    def _epochs(self) -> list[dict]:
        """The parent's epoch loop; returns every island's finalize reply.

        Each round every host advances its islands to the boundary;
        the parent merges the fair-share deltas in island-index order,
        plans migrations with :func:`plan_migrations`, and sends each
        host its share of the exchange.  An epoch that syncs no ledger
        and plans no move has nothing to exchange: the hosts are not
        sent one, and whether events remain comes from the advance
        replies.  Uncoupled islands are the one-round case:
        ``until=None`` runs each island to completion.
        """
        hosts, owners = self._hosts, self._owners()

        def replies(epoch: int) -> list:
            return [host.recv(index, epoch) for index, host in owners]

        interchange = self.interchange
        sync = interchange.fair_share_sync
        threshold = interchange.migrate_after_s
        until = interchange.epoch_s if interchange.coupled else None
        specs = [part.spec(self.spec) for part in self.layout]
        epoch = 0
        while True:
            epoch += 1
            for host in hosts:
                host.send("advance", until, sync, threshold)
            reports = replies(epoch)
            if until is None:
                break
            ledger = None
            if sync:
                # Merge island deltas in index order: one float-summation
                # order whichever hosts ran the islands.
                for usage, *_ in reports:
                    for user, hours in usage.items():
                        self._global_usage[user] = self._global_usage.get(user, 0.0) + hours
                ledger = self._global_usage
            moves: dict[int, tuple[list, list]] = {
                index: ([], []) for index in range(len(self.layout))
            }
            planned = []
            if threshold is not None:
                planned = plan_migrations(
                    [report[1] for report in reports],
                    [report[2] for report in reports],
                    specs,
                )
                for source, request, target in planned:
                    moves[source][0].append(request.job_id)
                    request.tags["migrated"] = True
                    request.tags["migrated_to"] = target
                    moves[target][1].append(request)
                self.migrations += len(planned)
            if ledger is not None or planned:
                for host in hosts:
                    host.send(
                        "exchange", ledger, {i: moves[i] for i in host.islands}, until
                    )
                pending = any(replies(epoch))
            else:
                pending = any(report[3] for report in reports)
            if not pending:
                break
            until += interchange.epoch_s
        for host in hosts:
            host.send("finalize")
        return replies(epoch)


class IslandHost:
    """Steps the islands one process owns, in island-index order.

    Every command yields one reply per owned island.  The parent drives
    an in-process host directly through :meth:`send` / :meth:`recv`; a
    forked host runs this same class behind a pipe
    (:mod:`repro.slurm.parallel`), so there is one implementation of
    the island protocol:

    * ``draw(config)`` — draw the GPU cohorts routed to each owned
      island; the reply is one ``(cohort, submit times, GPU counts)``
      triple per cohort, arrays in draw order;
    * ``assign({island: (ids per cohort, CPU requests)})`` — number
      the drawn jobs and add the island's CPU jobs; the island's
      bucket is then every job in job-id order;
    * ``advance(until, want_usage, threshold)`` — an island's first
      advance builds its simulator, runs ``island_setup`` and
      ``begin``; the reply is ``(usage delta, migration candidates,
      queue length, events remain)``.  With ``until=None`` (uncoupled
      islands) each island instead runs to completion and finishes
      before the next one begins, so the host holds one island at a
      time;
    * ``exchange(ledger, moves, boundary)`` — apply the fair-share
      ledger and this host's ``{island: (removed ids, incoming
      requests)}``; the reply is whether the island still has events;
    * ``finalize()`` — ``finalize``, remap nodes, ``island_finish``;
      the reply is ``{"result", "extra", "peak_rss_bytes"}``.

    ``beat`` receives each ``island.epoch`` event (the progress sink's
    ``update``, or a forked host's heartbeat pipe); ``lanes`` is a
    forked host's own live ``(tracer, recorder)`` pair (``None`` for one
    that is off), re-stamped with the island index before each island
    steps so its spans and events keep their island.
    """

    def __init__(self, runner: PartitionedRunner, buckets: dict[int, list], *,
                 beat: Callable[[Any], None] | None = None,
                 lanes: tuple = (None, None)) -> None:
        self.runner = runner
        self.islands = sorted(buckets)
        self._buckets = dict(buckets)
        self._drawn: dict[int, list[list[JobRequest]]] = {}
        self._live: dict[int, tuple[SlurmSimulator, Any]] = {}
        self._done: dict[int, dict] = {}
        self._beat = beat
        self._lanes = lanes
        self._epoch = 0
        self._replies: Iterator = iter(())

    # In-process transport: the parent pulls each reply as it needs it.
    def send(self, command: str, *args) -> None:
        self._replies = self.handle(command, *args)

    def recv(self, island: int, epoch: int):
        return next(self._replies)

    def close(self, failed: bool = False) -> None:
        self._replies = iter(())

    def handle(self, command: str, *args) -> Iterator:
        """The replies to one parent command, one per owned island."""
        return getattr(self, f"_{command}")(*args)

    # ------------------------------------------------------------------
    def _draw(self, config):
        import numpy as np

        from repro.workload.cohorts import draw_cohort

        num = len(self.runner.layout)
        for index in self.islands:
            cohorts = range(index, config.resolved_cohorts, num)
            self._drawn[index] = [draw_cohort(config, cohort) for cohort in cohorts]
            yield [
                (
                    cohort,
                    np.array([request.submit_time_s for request in requests]),
                    np.array([request.num_gpus for request in requests], dtype=np.int64),
                )
                for cohort, requests in zip(cohorts, self._drawn[index])
            ]

    def _assign(self, payload: dict):
        for index in self.islands:
            cohort_ids, bucket = payload[index]
            bucket = list(bucket)
            for requests, ids in zip(self._drawn.pop(index), cohort_ids):
                for request, job_id in zip(requests, ids.tolist()):
                    request.job_id = job_id
                bucket.extend(requests)
            bucket.sort(key=lambda request: request.job_id)
            self._buckets[index] = bucket
            yield len(bucket)

    def _advance(self, until: float | None, want_usage: bool, threshold: float | None):
        self._epoch += 1
        for index in self.islands:
            self._enter(index)
            if until is None:
                self._done[index] = self._run_to_completion(index)
                yield None
            else:
                yield self._step(index, until, want_usage, threshold)

    def _run_to_completion(self, index: int) -> dict:
        """The one-round case: the island's whole life, finish included.

        The simulator and its hook state go out of scope on return, so
        the next island begins with only this one's payload alive.
        """
        simulator, state = self._setup(index)
        result = simulator.run(self._buckets.pop(index))
        self._report(index, simulator)
        return self._finish(index, simulator, state, result)

    def _step(self, index: int, until: float, want_usage: bool, threshold: float | None):
        if index not in self._live:
            self._live[index] = self._setup(index)
            self._live[index][0].begin(self._buckets.pop(index))
        simulator = self._live[index][0]
        pending = simulator.advance(until=until)
        usage = simulator._policy.drain_usage() if want_usage else None
        candidates = (
            migration_candidates(simulator.queue.scan(), until, threshold)
            if threshold is not None
            else None
        )
        self._report(index, simulator)
        return usage, candidates, len(simulator.queue), pending

    def _exchange(self, ledger: dict | None, moves: dict, boundary: float):
        for index in self.islands:
            simulator = self._live[index][0]
            removals, incoming = moves[index]
            if ledger is not None:
                simulator._policy.set_usage(ledger)
            for job_id in removals:
                simulator.queue.remove(job_id)
            for request in incoming:
                simulator.loop.schedule(boundary, "submit", request)
            yield bool(simulator.loop)

    def _finalize(self):
        for index in self.islands:
            if index in self._done:
                yield self._done.pop(index)
                continue
            self._enter(index)
            simulator, state = self._live.pop(index)
            yield self._finish(index, simulator, state, simulator.finalize())

    # ------------------------------------------------------------------
    def _setup(self, index: int) -> tuple[SlurmSimulator, Any]:
        runner = self.runner
        part = runner.layout[index]
        simulator = SlurmSimulator(part.spec(runner.spec), runner.config)
        setup = runner.island_setup
        state = setup(simulator, part, runner.island_context) if setup else None
        return simulator, state

    def _finish(self, index: int, simulator: SlurmSimulator, state, result) -> dict:
        from repro.obs.runtime import peak_rss_bytes

        runner = self.runner
        _remap_nodes(result.records, runner.layout[index].node_start)
        finish = runner.island_finish
        extra = finish(simulator, state, result) if finish else None
        if not runner.return_records:
            result = dataclasses.replace(result, records=[])
        return {"result": result, "extra": extra, "peak_rss_bytes": peak_rss_bytes()}

    def _enter(self, index: int) -> None:
        tracer, recorder = self._lanes
        if tracer is not None:
            tracer.track = f"repro-island-{index}"
        if recorder is not None:
            recorder.island = index

    def _report(self, index: int, simulator: SlurmSimulator) -> None:
        """The island's ``island.epoch`` event, built once: the recorder
        keeps it and ``beat`` carries the same event to the progress
        sink.  Observation only, never part of the protocol payload."""
        from repro.obs.events import EventRecord
        from repro.obs.runtime import get_metrics, get_recorder, peak_rss_bytes

        recorder = get_recorder()
        if self._beat is None and not recorder.enabled:
            return
        metrics = get_metrics()
        event = EventRecord.now(
            "island.epoch", "interchange", index,
            epoch=self._epoch,
            sim_time_s=float(simulator.loop.now),
            queue_depth=len(simulator.queue),
            running=len(simulator._running),
            events=simulator.loop.processed,
            dispatched=len(simulator.records),
            peak_rss_bytes=peak_rss_bytes(),
            spill_bytes=(
                metrics.counter_value("repro_frame_spill_bytes_total")
                if metrics.enabled else 0.0
            ),
        )
        recorder.keep(event)
        if self._beat is not None:
            self._beat(event)


def _remap_nodes(records: list[JobRecord], node_start: int) -> None:
    """Rewrite island-local node indices as global machine indices."""
    if node_start == 0:
        return
    for record in records:
        record.nodes = tuple(node_start + node for node in record.nodes)


def run_partitioned(
    requests: list[JobRequest],
    num_partitions: int,
    *,
    total_nodes: int | None = None,
    spec: ClusterSpec | None = None,
    config: SchedulerConfig | None = None,
    interchange: InterchangeConfig | None = None,
) -> PartitionedResult:
    """Convenience wrapper: layout + runner + run in one call."""
    if spec is not None and total_nodes is None:
        total_nodes = spec.num_nodes
    if total_nodes is None:
        raise SchedulerError("run_partitioned needs total_nodes or a spec")
    layout = PartitionLayout.even(total_nodes, num_partitions)
    runner = PartitionedRunner(
        layout, spec=spec, config=config, interchange=interchange
    )
    return runner.run(requests)
