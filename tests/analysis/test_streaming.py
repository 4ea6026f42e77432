"""Tests for the shared chunk-fold primitives in repro.analysis.streaming.

Kernels fold ``source.chunks()`` whatever the representation, so rows
inside a chunk may arrive in any order (a materialized table is one
chunk in completion order) while chunk boundaries must respect the
fold's key.
"""

import numpy as np
import pytest

from repro.analysis.multigpu import multi_gpu_cov
from repro.analysis.prediction import predict_user_behavior
from repro.analysis.streaming import iter_key_sorted_chunks, iter_sorted_groups
from repro.analysis.transitions import segment_campaigns, transition_matrix
from repro.errors import AnalysisError
from repro.frame import ChunkedTable, Table


def keyed(job_ids):
    return Table({"job_id": job_ids, "value": np.arange(len(job_ids), dtype=float)})


class TestIterSortedGroups:
    def test_unsorted_chunk_yields_each_key_once(self):
        stream = ChunkedTable([keyed([2, 1, 2]), keyed([3, 3])])
        groups = list(iter_sorted_groups(stream, "job_id"))
        assert [key for key, _ in groups] == [1, 2, 3]
        # Stable sort: a group keeps its rows' stream order.
        assert list(groups[1][1]["value"]) == [0.0, 2.0]

    def test_group_straddling_chunks_is_stitched(self):
        stream = ChunkedTable([keyed([1, 2]), keyed([2, 3])])
        groups = dict(iter_sorted_groups(stream, "job_id"))
        assert groups[2].num_rows == 2

    def test_out_of_order_chunks_raise_naming_the_key(self):
        stream = ChunkedTable([keyed([1, 3]), keyed([2, 4])])
        with pytest.raises(AnalysisError, match="job_id"):
            list(iter_sorted_groups(stream, "job_id"))

    def test_job_never_reported_twice(self):
        rows = [
            {"job_id": job, "gpu_index": gpu, "sm_mean": 40.0 + gpu,
             "mem_bw_mean": 4.0, "mem_size_mean": 20.0}
            for job, gpu in ((7, 0), (5, 0), (7, 1), (5, 1))
        ]
        stream = ChunkedTable([Table.from_rows(rows)])
        results = multi_gpu_cov(stream)
        assert [r.job_id for r in results] == [5, 7]
        assert all(r.num_gpus == 2 for r in results)

    def test_key_sorted_chunks_leave_sorted_chunks_alone(self):
        chunk = keyed([1, 1, 2])
        assert next(iter_key_sorted_chunks(chunk, "job_id")) is chunk


class TestRowOrderIndependence:
    """A row-shuffled materialized table folds like the sorted one."""

    @pytest.fixture(scope="class")
    def tables(self, small_dataset):
        rng = np.random.default_rng(2022)
        gpu_jobs = small_dataset.gpu_jobs
        per_gpu = small_dataset.per_gpu
        return {
            "sorted_jobs": gpu_jobs.sort_by("submit_time_s"),
            "shuffled_jobs": gpu_jobs.take(rng.permutation(gpu_jobs.num_rows)),
            "sorted_gpus": per_gpu.sort_by("job_id"),
            "shuffled_gpus": per_gpu.take(rng.permutation(per_gpu.num_rows)),
        }

    def test_transition_matrix(self, tables):
        assert (
            transition_matrix(tables["shuffled_jobs"]).to_dict()
            == transition_matrix(tables["sorted_jobs"]).to_dict()
        )

    def test_segment_campaigns(self, tables):
        assert segment_campaigns(tables["shuffled_jobs"]) == segment_campaigns(
            tables["sorted_jobs"]
        )

    def test_predict_user_behavior(self, tables):
        for strategy in ("user_median", "user_ewma"):
            assert predict_user_behavior(
                tables["shuffled_jobs"], strategy=strategy
            ) == predict_user_behavior(tables["sorted_jobs"], strategy=strategy)

    def test_multi_gpu_cov(self, tables):
        shuffled = multi_gpu_cov(tables["shuffled_gpus"])
        ordered = multi_gpu_cov(tables["sorted_gpus"])
        assert [r.job_id for r in shuffled] == [r.job_id for r in ordered]
        for ours, theirs in zip(shuffled, ordered):
            assert ours.num_gpus == theirs.num_gpus
            assert ours.num_idle_gpus == theirs.num_idle_gpus
            for metric, value in theirs.cov_all.items():
                assert ours.cov_all[metric] == pytest.approx(value, rel=1e-12, nan_ok=True)
