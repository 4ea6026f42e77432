"""Every generated request is pinned, bit for bit, on both RNG paths.

``TestGolden`` pins the whole ``cohorts=1`` dataset at scale 0.01; the
digests here pin the generator's own output at scale 0.02 on the legacy
single stream (``cohorts=1``) and on the spawn-keyed cohort streams
(``cohorts=2``, the path a two-island build draws).  Each digest covers
every request's fields, its tags, and its activity model's pickled
array, sizes and scalars, with each value's type, so a rewrite of the
generator that moves one draw, one rounding, or one Python float to a
numpy scalar fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.workload.activity import PhaseSchedule, _rebuild_model
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

#: sha256 of ``trace_digest`` per ``(seed, cohorts)`` at scale 0.02.
GOLDEN = {
    (7, 1): "3985972cb9cf99495d2dd9f6510f6b822910a8e236a6b354f2716ea63fca51dc",
    (7, 2): "db220c396074bb19f55987041b46670a8afeace04166be3a8fc7ec2b04a31110",
    (20220214, 1): "6784029ec228b06a687f6587a95e2b0180c05582cf76472ffa6a12f4d056f704",
    (20220214, 2): "18f48b13d0eebdb6a5824cdf79a52ae6efbfa4b07cd33295aba5e3450587346d",
}


def _encode(value) -> str:
    """A canonical, typed text form of one request or tag value."""
    kind = type(value).__name__
    if isinstance(value, (bool, np.bool_)):
        return f"{kind}:{bool(value)}"
    if isinstance(value, (int, np.integer)):
        return f"{kind}:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"{kind}:{float(value).hex()}"
    if isinstance(value, str):
        return f"{kind}:{value}"
    if isinstance(value, (set, frozenset)):
        return f"{kind}:[{','.join(sorted(map(_encode, value)))}]"
    if isinstance(value, (tuple, list)):
        return f"{kind}:[{','.join(map(_encode, value))}]"
    raise TypeError(f"no canonical form for {kind}")


def _model_digest(model, digest) -> None:
    """The model's pickled form: one float64 array, sizes and scalars."""
    rebuild, (cls, values, sizes, scalars, power) = model.__reduce__()
    assert rebuild is _rebuild_model, "the model left the one-array pickle layout"
    digest.update(cls.__name__.encode())
    digest.update(values.dtype.str.encode())
    digest.update(np.ascontiguousarray(values).tobytes())
    digest.update(_encode(sizes).encode())
    digest.update(_encode(scalars).encode())
    digest.update(_encode(tuple(vars(power).items())).encode())


def trace_digest(requests) -> str:
    digest = hashlib.sha256()
    for request in requests:
        fields = (
            request.job_id, request.user, request.submit_time_s, request.runtime_s,
            request.num_gpus, request.cores, request.memory_gb, request.interface,
            request.intended_class, request.time_limit_s,
        )
        digest.update(_encode(fields).encode())
        for key in sorted(request.tags):
            value = request.tags[key]
            digest.update(key.encode())
            if key == "activity":
                _model_digest(value, digest)
            else:
                digest.update(_encode(value).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, cohorts", sorted(GOLDEN))
def test_generated_trace_matches_golden(seed, cohorts):
    config = WorkloadConfig(scale=0.02, seed=seed, cohorts=cohorts)
    assert trace_digest(WorkloadGenerator(config).generate()) == GOLDEN[seed, cohorts]


def test_spans_run_once_per_gpu_job(monkeypatch):
    """A GPU job's active fraction and its five burst placements share
    one ``PhaseSchedule.spans`` call."""
    calls = []
    spans = PhaseSchedule.spans

    def counting(self):
        calls.append(self)
        return spans(self)

    monkeypatch.setattr(PhaseSchedule, "spans", counting)
    requests = WorkloadGenerator(WorkloadConfig(scale=0.01, seed=7)).generate()
    gpu_jobs = sum(request.num_gpus > 0 for request in requests)
    assert gpu_jobs > 500
    assert len(calls) == gpu_jobs
