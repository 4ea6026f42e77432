"""Process-parallel fan-out for pipeline sessions.

:func:`parallel_map` is the process pool behind two fan-out shapes:

* **many cohorts, one workload** — cohort generation draws each
  cohort's jobs from its own stream
  (:func:`repro.workload.cohorts.generate_sharded`);
* **many seeds, one analysis** — robustness sweeps run the full
  pipeline per seed in separate processes.

The islands of a build fork their own hosts instead
(:mod:`repro.slurm.parallel`).  Everything degrades to serial
execution: ``workers <= 1``, a single work item, or a pool that cannot
start (restricted environments) all take the in-process path, so
parallelism is purely an optimisation and never a correctness
requirement.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(workers: int | None) -> int:
    """Normalise a requested worker count to ``[1, 64]``.

    ``None`` means "no preference": the ``REPRO_WORKERS`` environment
    variable supplies the default (letting CLI users and CI set
    parallelism globally), falling back to serial.  A malformed
    ``REPRO_WORKERS`` is ignored — parallelism is an optimisation, not
    a correctness requirement, so it degrades rather than crashes.

    An explicit request above the core count is honoured — the pools
    here are I/O-and-compute mixes where mild oversubscription is the
    caller's call — but capped to keep a typo from forking hundreds of
    interpreters.
    """
    if workers is None:
        env = os.environ.get("REPRO_WORKERS", "")
        try:
            workers = int(env)
        except ValueError:
            return 1
    if workers <= 1:
        return 1
    return min(int(workers), 64)


class ParallelTaskError(RuntimeError):
    """A task failed inside a worker process.

    Raised in the *parent* with the offending item's index and the
    worker's formatted traceback embedded in the message — the chained
    ``__cause__`` does not survive the pool's exception pickling, so
    the context is carried explicitly.  ``task`` names the work item
    (``"parallel_map task <index>"`` unless the caller knows better,
    e.g. ``"island 1 at epoch 3"`` for an island host).
    """

    def __init__(self, index: int, detail: str, task: str | None = None) -> None:
        self.task = task if task is not None else f"parallel_map task {index}"
        super().__init__(f"{self.task} failed in a worker process:\n{detail}")
        self.index = index
        self.detail = detail

    def __reduce__(self):
        return (ParallelTaskError, (self.index, self.detail, self.task))


class _IndexedTask:
    """Picklable wrapper running ``fn`` on ``(index, item)`` pairs."""

    def __init__(self, fn: Callable[[T], R]) -> None:
        self.fn = fn

    def __call__(self, pair: tuple[int, T]) -> R:
        index, item = pair
        try:
            return self.fn(item)
        except Exception as exc:
            raise ParallelTaskError(index, traceback.format_exc()) from exc


def parallel_map(
    fn: Callable[[T], R], items: Iterable[T], workers: int | None = None
) -> list[R]:
    """``[fn(x) for x in items]`` across a process pool.

    Results keep item order.  ``fn`` and the items must be picklable
    (module-level functions).  Falls back to the serial path when the
    pool is pointless (one worker, one item) or cannot start.  A task
    that raises in a worker surfaces as :class:`ParallelTaskError`
    carrying the item index and the worker traceback; the serial path
    raises the original exception unwrapped (its traceback is already
    intact).
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(items))) as pool:
            return list(pool.map(_IndexedTask(fn), enumerate(items)))
    except (ImportError, OSError, PermissionError):
        return [fn(item) for item in items]
