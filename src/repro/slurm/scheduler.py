"""The event-driven scheduler simulation.

Jobs are submitted at their arrival times, queued, placed when their
resources are free, and released when they finish.  A job's realised
end is ``min(intrinsic runtime, time limit)``; hitting the limit
produces a TIMEOUT exit (the fate of IDE jobs in the paper).

The simulator runs epilog hooks as jobs end, mirroring how Supercloud
attaches its monitoring: the epilog hands the finished job's
telemetry to the central store (Sec. II, "System Monitoring").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.cluster.node import Cluster
from repro.cluster.spec import ClusterSpec, supercloud_spec
from repro.cluster.topology import FatTreeTopology
from repro.errors import SchedulerError
from repro.slurm.events import EventLoop
from repro.slurm.failures import FailureModel
from repro.slurm.job import EXIT_FOR_CLASS, ExitCondition, JobRecord, JobRequest
from repro.slurm.placement import PlacementPolicy
from repro.slurm.queue import JobQueue

EpilogHook = Callable[[JobRecord], None]


@dataclass
class SchedulerConfig:
    """Tunable policy knobs."""

    backfill_depth: int = 64
    #: Priority boost for multi-GPU jobs ("scheduled quickly with a
    #: high priority", paper Sec. V).
    multi_gpu_priority: float = 10.0
    #: Seconds of scheduler overhead per dispatch (prolog startup,
    #: slurmctld cycle latency).  Gives single-GPU jobs their ~3 s
    #: median wait (paper Sec. V).
    dispatch_overhead_s: float = 3.0
    #: Overhead on the expedited path taken by priority (multi-GPU)
    #: jobs, matching their 1 s median wait.
    priority_dispatch_overhead_s: float = 1.0
    #: Optional hardware failure injection (see
    #: :class:`repro.slurm.failures.FailureModel`).
    failure_model: FailureModel | None = None
    #: Queue-priority policy: a registry name or a
    #: :class:`~repro.slurm.policies.PriorityPolicy` instance (see
    #: :mod:`repro.slurm.policies`).  The paper's system ran plain
    #: FCFS; when set, the policy's priorities replace the flat FCFS +
    #: multi-GPU boost.
    policy: object | None = None


@dataclass
class SimulationResult:
    """Everything the simulation produced."""

    records: list[JobRecord]
    makespan_s: float
    events_processed: int
    peak_queue_length: int
    config: SchedulerConfig
    node_failures: int = 0
    jobs_killed_by_failures: int = 0

    def gpu_records(self) -> list[JobRecord]:
        return [r for r in self.records if r.request.is_gpu_job]

    def cpu_records(self) -> list[JobRecord]:
        return [r for r in self.records if not r.request.is_gpu_job]


class SlurmSimulator:
    """Discrete-event simulation of the Supercloud scheduler."""

    def __init__(
        self,
        spec: ClusterSpec | None = None,
        config: SchedulerConfig | None = None,
    ) -> None:
        self.spec = spec or supercloud_spec()
        self.config = config or SchedulerConfig()
        self.cluster = Cluster(self.spec)
        self.topology = FatTreeTopology(self.spec.num_nodes)
        self.placement = PlacementPolicy(self.cluster, self.topology)
        self.queue = JobQueue(self.config.backfill_depth)
        self.loop = EventLoop()
        self.records: list[JobRecord] = []
        #: job_id -> (request, start time, nodes, attempt number)
        self._running: dict[int, tuple[JobRequest, float, list[int], int]] = {}
        self._attempts: dict[int, int] = {}
        self._epilog_hooks: list[EpilogHook] = []
        self._peak_queue = 0
        self._node_failures = 0
        self._jobs_killed = 0
        # observability handles; re-resolved against the ambient
        # registry at the top of every run()
        self._init_obs()
        if self.config.policy is None:
            self._policy = None
        elif isinstance(self.config.policy, str):
            from repro.slurm.policies import make_policy

            self._policy = make_policy(self.config.policy)
        else:
            self._policy = self.config.policy

    # ------------------------------------------------------------------
    def add_epilog(self, hook: EpilogHook) -> None:
        """Register a hook called when a job ends (monitoring stop).

        Epilogs run synchronously inside the event loop, so they must
        stay cheap and strictly ordered — the monitoring collector
        only consumes its RNG and enqueues deferred sampling tasks
        here; the expensive evaluation happens after :meth:`run`.
        """
        self._epilog_hooks.append(hook)

    # ------------------------------------------------------------------
    def _init_obs(self) -> None:
        """Resolve the ambient metrics into cached per-run handles.

        When observability is disabled every handle is the shared
        no-op instrument, so the event loop pays one dict-free method
        call per use; when enabled the handles are resolved once here
        instead of per event.
        """
        from repro.obs import runtime

        metrics = runtime.get_metrics()
        self._obs_enabled = metrics.enabled
        self._event_counters = {
            kind: metrics.counter(
                "repro_scheduler_events_total",
                help="scheduler events processed",
                kind=kind,
            )
            for kind in ("submit", "finish", "node_fail", "node_repair")
        }
        self._dispatch_counters = {
            backfill: metrics.counter(
                "repro_scheduler_dispatch_total",
                help="job dispatches (backfill = job jumped a stuck head-of-line job)",
                backfill=str(backfill).lower(),
            )
            for backfill in (False, True)
        }
        from repro.obs.metrics import COUNT_BUCKETS

        self._queue_depth_hist = metrics.histogram(
            "repro_scheduler_queue_depth",
            buckets=COUNT_BUCKETS,
            help="pending queue depth observed at each dispatch",
        )
        self._peak_queue_gauge = metrics.gauge(
            "repro_scheduler_peak_queue", help="peak pending queue length"
        )

    def run(self, requests: Sequence[JobRequest]) -> SimulationResult:
        """Simulate all requests to completion and return the records."""
        from repro.obs import runtime

        tracer = runtime.get_tracer()
        with tracer.span("slurm.run", category="scheduler", jobs=len(requests)) as span:
            result = self._run(requests)
            span.set(
                events=result.events_processed,
                makespan_s=round(result.makespan_s, 3),
                peak_queue=result.peak_queue_length,
            )
        return result

    def _run(self, requests: Sequence[JobRequest]) -> SimulationResult:
        self.begin(requests)
        self.advance()
        return self.finalize()

    # ------------------------------------------------------------------
    # Stepped execution (begin / advance / finalize)
    #
    # ``run()`` is begin + advance-to-completion + finalize.  The
    # partitioned runner (:mod:`repro.slurm.interchange`) drives the
    # same three phases directly, advancing each island only up to the
    # next interchange epoch boundary so cross-partition state stays
    # within one epoch of lag.
    # ------------------------------------------------------------------
    def begin(self, requests: Sequence[JobRequest]) -> None:
        """Schedule all submit (and failure) events; validate requests."""
        self._init_obs()
        seen: set[int] = set()
        last_submit = 0.0
        for request in requests:
            if request.job_id in seen:
                raise SchedulerError(f"duplicate job id {request.job_id}")
            seen.add(request.job_id)
            self.placement.check_feasible(request)
            self.loop.schedule(request.submit_time_s, "submit", request)
            last_submit = max(last_submit, request.submit_time_s)

        if self.config.failure_model is not None:
            horizon = last_submit + 96.0 * 3600.0
            for time_s, node in self.config.failure_model.draw_failure_times(
                self.spec.num_nodes, horizon
            ):
                self.loop.schedule(time_s, "node_fail", node)

    def advance(self, until: float | None = None) -> bool:
        """Process events with ``time <= until`` (all events if None).

        Returns True while events remain pending (i.e. the loop paused
        at the epoch boundary rather than draining).
        """
        event_counters = self._event_counters
        while self.loop:
            if until is not None:
                next_time = self.loop.peek_time()
                if next_time is not None and next_time > until:
                    return True
            event = self.loop.pop()
            if event.kind == "submit":
                self._on_submit(event.payload)
            elif event.kind == "finish":
                self._on_finish(event.payload)
            elif event.kind == "node_fail":
                self._on_node_fail(event.payload)
            elif event.kind == "node_repair":
                self._on_node_repair(event.payload)
            else:
                raise SchedulerError(f"unknown event kind {event.kind!r}")
            counter = event_counters.get(event.kind)
            if counter is not None:
                counter.inc()
            self._dispatch()
        return False

    def finalize(self) -> SimulationResult:
        """Check the queue drained and build the result."""
        if self.queue:
            raise SchedulerError(
                f"simulation drained but {len(self.queue)} jobs still queued"
            )
        self._peak_queue_gauge.set_max(self._peak_queue)
        return SimulationResult(
            records=self.records,
            makespan_s=self.loop.now,
            events_processed=self.loop.processed,
            peak_queue_length=self._peak_queue,
            config=self.config,
            node_failures=self._node_failures,
            jobs_killed_by_failures=self._jobs_killed,
        )

    # ------------------------------------------------------------------
    def _priority(self, request: JobRequest) -> float:
        if self._policy is not None:
            return self._policy.priority(request)
        if request.num_gpus > 1:
            return self.config.multi_gpu_priority
        return 0.0

    def _on_submit(self, request: JobRequest) -> None:
        self.queue.push(request, self._priority(request))
        self._peak_queue = max(self._peak_queue, len(self.queue))

    def _dispatch(self) -> None:
        """Start every queued job that fits right now (with backfill)."""
        if self._policy is not None and self.queue:
            # stateful policies (fair share) drift between events
            self.queue.reprioritize(self._policy.priority)
        while True:
            depth = len(self.queue)
            started = self.queue.pop_first_placeable(self._can_place)
            if started is None:
                break
            if self._obs_enabled:
                self._dispatch_counters[self.queue.last_pop_was_backfill].inc()
                self._queue_depth_hist.observe(depth)
            self._start(started)

    def _can_place(self, request: JobRequest) -> bool:
        return self.placement.find_placement(request) is not None

    def _start(self, request: JobRequest) -> None:
        plan = self.placement.find_placement(request)
        if plan is None:
            raise SchedulerError(f"job {request.job_id} dispatched but has no placement")
        nodes = []
        for node_index, cores, memory_gb, gpus in plan:
            self.cluster.nodes[node_index].allocate(request.job_id, cores, memory_gb, gpus)
            nodes.append(node_index)
        self.placement.invalidate()
        overhead = (
            self.config.priority_dispatch_overhead_s
            if request.num_gpus > 1
            else self.config.dispatch_overhead_s
        )
        start = self.loop.now + overhead
        realised_runtime = min(request.runtime_s, request.time_limit_s)
        attempt = self._attempts.get(request.job_id, 0) + 1
        self._attempts[request.job_id] = attempt
        self._running[request.job_id] = (request, start, nodes, attempt)
        self.loop.schedule(start + realised_runtime, "finish", (request.job_id, attempt))

    def _on_finish(self, payload: tuple[int, int]) -> None:
        job_id, attempt = payload
        entry = self._running.get(job_id)
        if entry is None or entry[3] != attempt:
            return  # stale event: the attempt was killed by a failure
        request, start, nodes, _ = self._running.pop(job_id)
        for node_index in nodes:
            self.cluster.nodes[node_index].release(job_id)
        self.placement.invalidate()
        record = JobRecord(
            request=request,
            start_time_s=start,
            end_time_s=self.loop.now,
            nodes=tuple(nodes),
            exit_condition=self._exit_condition(request),
        )
        record.validate()
        self.records.append(record)
        if self._policy is not None:
            self._policy.observe_completion(request, record.gpu_hours)
        for hook in self._epilog_hooks:
            hook(record)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def _on_node_fail(self, node_index: int) -> None:
        node = self.cluster.nodes[node_index]
        if not node.available:
            return  # already down; coincident event
        self._node_failures += 1
        node.available = False
        model = self.config.failure_model
        victims = list(node.allocations)
        for job_id in victims:
            self._kill(job_id, requeue=bool(model and model.requeue))
        self.placement.invalidate()
        repair = model.repair_time_s if model else 0.0
        self.loop.schedule(self.loop.now + repair, "node_repair", node_index)

    def _on_node_repair(self, node_index: int) -> None:
        self.cluster.nodes[node_index].available = True
        self.placement.invalidate()

    def _kill(self, job_id: int, requeue: bool) -> None:
        """Terminate a running job because a node under it died."""
        request, start, nodes, _ = self._running.pop(job_id)
        self._jobs_killed += 1
        for node_index in nodes:
            self.cluster.nodes[node_index].release(job_id)
        if requeue:
            request.tags["requeues"] = request.tags.get("requeues", 0) + 1
            self.queue.push(request, self._priority(request) + 1.0)
            self._peak_queue = max(self._peak_queue, len(self.queue))
            return
        record = JobRecord(
            request=request,
            start_time_s=start,
            # the node can die inside the dispatch-overhead window,
            # before the job's nominal start
            end_time_s=max(self.loop.now, start),
            nodes=tuple(nodes),
            exit_condition=ExitCondition.NODE_FAILURE,
        )
        record.validate()
        self.records.append(record)
        for hook in self._epilog_hooks:
            hook(record)

    @staticmethod
    def _exit_condition(request: JobRequest) -> ExitCondition:
        """Realise the intended life-cycle class as an exit condition.

        A job that hits its time limit times out regardless of intent —
        this is how long interactive sessions become IDE jobs.
        """
        if request.runtime_s >= request.time_limit_s:
            return ExitCondition.TIMEOUT
        return EXIT_FOR_CLASS[request.intended_class]
