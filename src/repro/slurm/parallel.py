"""Forked island hosts: the lockstep interchange across worker processes.

:class:`~repro.slurm.interchange.PartitionedRunner` drives *hosts*.
With ``workers > 1`` and more than one island, :func:`fork_hosts`
starts ``min(workers, K)`` persistent host processes; host ``h`` owns
every island ``i`` with ``i % hosts == h`` and runs an
:class:`~repro.slurm.interchange.IslandHost` — the class the
in-process host uses — for the whole run.  In a dataset build the
hosts fork before anything is drawn and draw their own islands' GPU
cohorts: the ``draw`` round carries each cohort's submit times and GPU
counts to the parent, the ``assign`` round carries the job ids and the
island's CPU jobs back, and no activity model ever crosses.  After
that only the bounded interchange payload crosses the process boundary
each epoch: per-user fair-share usage *deltas*, migration *candidates*
(overdue queued requests), queue lengths, and the planned moves coming
back — never cluster or event-loop state.  The parent computes the
numbering, the ledger merge and the migration plan once, in the
runner, so a forked run is bit-identical to the in-process one by
construction.

Protocol: the parent sends ``(command, args)``; the host answers with
one ``("ok", reply)`` per owned island in index order, or with
``("error", traceback)`` in place of the failing island's reply and
exits.  Finalize replies also carry the host's drained spans, metrics
and flight-recorder events, which the parent adopts into its ambient
observability.  While a progress sink watches, each island's
``island.epoch`` event also rides a separate one-way heartbeat pipe to
it, so observation can never reorder or alter the lockstep payload.

A host that fails or dies surfaces in the parent as
:class:`~repro.pipeline.parallel.ParallelTaskError` naming the island
the parent was waiting on and the epoch it had reached (epoch 0 while
the jobs are drawn and assigned); the runner then closes every pipe and
reaps every host process.
"""

from __future__ import annotations

import traceback

#: Seconds a finished host gets to exit before it is terminated.
JOIN_TIMEOUT_S = 30.0


class ForkedHost:
    """The parent's handle on one forked host process."""

    def __init__(self, ctx, runner, buckets: dict[int, list], sink) -> None:
        self.islands = sorted(buckets)
        self._sink = sink
        self._conn, child = ctx.Pipe()
        # duplex=False: island.epoch events flow host -> parent only.
        self._beats, child_beats = ctx.Pipe(duplex=False) if sink is not None else (None, None)
        self.process = ctx.Process(
            target=_host_main, args=(child, runner, buckets, child_beats), daemon=True
        )
        try:
            self.process.start()
        finally:
            child.close()
            if child_beats is not None:
                child_beats.close()

    def send(self, command: str, *args) -> None:
        try:
            self._conn.send((command, args))
        except OSError:
            pass  # the host is gone; recv reports it against the island awaited

    def recv(self, island: int, epoch: int):
        """One island's reply; a failed or dead host raises."""
        from repro.pipeline.parallel import ParallelTaskError

        task = f"island {island} at epoch {epoch}"
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            self.process.join(timeout=1.0)
            raise ParallelTaskError(
                island,
                f"host process {self.process.pid} exited with code "
                f"{self.process.exitcode} without a reply",
                task=task,
            ) from None
        finally:
            self._forward_heartbeats()
        if message[0] == "error":
            raise ParallelTaskError(island, message[1], task=task)
        reply = message[1]
        if isinstance(reply, dict) and "obs" in reply:
            _adopt(reply.pop("obs"))
        return reply

    def close(self, failed: bool = False) -> None:
        """Close the pipes and reap the process (killed if the run failed)."""
        for conn in (self._conn, self._beats):
            if conn is not None:
                conn.close()
        if failed and self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=JOIN_TIMEOUT_S)
        if self.process.is_alive():  # pragma: no cover - a hung host
            self.process.kill()
            self.process.join()

    def _forward_heartbeats(self) -> None:
        """Hand queued ``island.epoch`` events to the progress sink,
        never blocking: the lockstep does not wait on telemetry."""
        if self._beats is None:
            return
        try:
            while self._beats.poll(0):
                self._sink.update(self._beats.recv())
        except (OSError, EOFError):
            pass  # the host is gone; its protocol pipe reports that


def fork_hosts(runner, buckets: dict[int, list], count: int) -> list[ForkedHost]:
    """Start ``count`` host processes, host ``h`` owning islands ``i % count == h``.

    Raises ``OSError`` if the processes cannot start (after reaping any
    that did), so the runner can fall back to an in-process host.
    """
    import multiprocessing

    from repro.obs.progress import get_sink

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        ctx = multiprocessing.get_context()
    sink = get_sink()
    hosts: list[ForkedHost] = []
    try:
        for h in range(count):
            owned = {i: bucket for i, bucket in buckets.items() if i % count == h}
            hosts.append(ForkedHost(ctx, runner, owned, sink))
    except BaseException:
        for host in hosts:
            host.close(failed=True)
        raise
    return hosts


def _host_main(conn, runner, buckets: dict[int, list], beats) -> None:
    """A forked host: answer parent commands until ``finalize``.

    The host records only where the ambient observability it inherited
    from the parent is live: an untraced build's hosts record nothing
    and ship home empty payloads.
    """
    from repro.obs import runtime
    from repro.obs.events import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.slurm.interchange import IslandHost

    tracer = Tracer(process_name="repro-island-host") if runtime.get_tracer().enabled else None
    metrics = MetricsRegistry() if runtime.get_metrics().enabled else None
    recorder = FlightRecorder() if runtime.get_recorder().enabled else None
    try:
        with runtime.use(tracer, metrics, recorder):
            host = IslandHost(
                runner,
                buckets,
                beat=beats.send if beats is not None else None,
                lanes=(tracer, recorder),
            )
            command = None
            while command != "finalize":
                command, args = conn.recv()
                for reply in host.handle(command, *args):
                    if command == "finalize":
                        reply["obs"] = (
                            runtime.get_tracer().drain_payload(),
                            runtime.get_metrics().drain(),
                            runtime.get_recorder().drain_payload(),
                        )
                    conn.send(("ok", reply))
    except Exception:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        if beats is not None:
            beats.close()
        conn.close()


def _adopt(obs: tuple[list, dict, list]) -> None:
    """Re-parent a host's spans and merge its metrics and events into
    the ambient observability triple (the session's, in a build)."""
    from repro.obs import runtime

    spans, metrics_snapshot, events = obs
    tracer = runtime.get_tracer()
    if spans:
        tracer.adopt(spans, parent=tracer.current_span_id())
    metrics = runtime.get_metrics()
    if metrics_snapshot and metrics.enabled:
        metrics.merge(metrics_snapshot)
    recorder = runtime.get_recorder()
    if events and recorder.enabled:
        recorder.adopt(events)
