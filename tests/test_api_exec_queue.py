"""Tests of the ``queue`` execution backend: spool, leases, equivalence.

The contract under test: a sweep on the ``queue`` backend — requests
spooled to disk, claimed and solved by independent worker processes — is
bit-for-bit identical (modulo measured ``runtime``) to the ``serial``
backend, including when a worker is SIGKILLed mid-sweep (its claims are
re-enqueued via lease expiry, never lost); requests that keep killing
workers are tombstoned with a structured ``poison`` failure instead of
crash-looping; ``ExecutionPolicy`` semantics (structured timeouts,
deterministic retries) hold exactly as on every in-process backend.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.api import (
    ExecutionPolicy,
    ScheduleRequest,
    available_backends,
    open_cache,
    register_algorithm,
    route,
    solve_batch,
    unregister_algorithm,
)
from repro.api.exec import QueueBackend, Spool, run_worker
from repro.api.exec.queue import (
    DEFAULT_MAX_RECLAIMS,
    POISON_KIND,
    QUEUE_DIR_ENV,
    QUEUE_SPAWN_ENV,
)
from repro.api.exec.worker import WORKER_ERROR_KIND
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

FAST_CFG = DagHetPartConfig(k_prime_values=(1, 4))


def _request(**overrides) -> ScheduleRequest:
    base = dict(workflow=generate_workflow("blast", 24, seed=1),
                cluster=default_cluster(), algorithm="daghetpart",
                config=FAST_CFG, scale_memory=True, want_mapping=False)
    base.update(overrides)
    return ScheduleRequest(**base)


def _sweep_requests(n=6):
    return [_request(workflow=generate_workflow(family, 24, seed=seed),
                     algorithm=algorithm,
                     config=FAST_CFG if algorithm == "daghetpart" else None,
                     tags={"instance": f"{family}-{seed}-{algorithm}"})
            for seed in range(max(1, n // 4))
            for family in ("blast", "bwa")
            for algorithm in ("daghetmem", "daghetpart")][:n]


def _strip(result):
    return {k: v for k, v in result.to_dict().items() if k != "runtime"}


@pytest.fixture
def attach_spool(tmp_path, monkeypatch):
    """A spool served by one in-process worker thread (shared registry).

    Test-registered algorithms only exist in this interpreter, so policy
    and failure-envelope tests run the worker loop in a thread instead of
    a spawned subprocess; the spool protocol is identical either way.
    """
    spool_dir = str(tmp_path / "spool")
    os.makedirs(spool_dir)
    monkeypatch.setenv(QUEUE_DIR_ENV, spool_dir)
    monkeypatch.setenv(QUEUE_SPAWN_ENV, "0")
    thread = threading.Thread(
        target=run_worker, args=(spool_dir,),
        kwargs=dict(worker_id="w-test", poll_s=0.01), daemon=True)
    thread.start()
    yield spool_dir
    Spool(spool_dir).request_stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# The spool protocol itself
# ----------------------------------------------------------------------
class TestSpool:
    def test_submit_claim_finish_roundtrip(self, tmp_path):
        spool = Spool(str(tmp_path))
        request = _request()
        job_id = spool.submit(request)
        assert spool.counts()["pending"] == 1
        claimed_id, payload = spool.claim("w1")
        assert claimed_id == job_id
        assert payload["reclaims"] == 0
        # the claim moved the file: a sibling finds nothing to take
        assert spool.claim("w2") is None
        rebuilt = ScheduleRequest.from_dict(payload["request"])
        assert rebuilt.workflow.name == request.workflow.name
        result = solve_batch([rebuilt])[0]
        spool.write_result(job_id, result, "w1")
        spool.finish("w1", job_id)
        assert _strip(spool.read_result(job_id)) == _strip(result)
        assert spool.counts() == {"pending": 0, "claimed": 0, "done": 1,
                                  "tombstones": 0}

    def test_empty_spool_path_is_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            Spool("")

    def test_expired_lease_reenqueues_claims(self, tmp_path):
        spool = Spool(str(tmp_path), lease_timeout_s=0.15)
        job_id = spool.submit(_request())
        spool.claim("doomed")
        # the lease is fresh: maintain must not steal a live worker's claim
        assert spool.maintain() == 0
        time.sleep(0.3)  # worker "dies": heartbeats stop, lease expires
        assert spool.maintain() == 1
        reclaimed_id, payload = spool.claim("rescuer")
        assert reclaimed_id == job_id
        assert payload["reclaims"] == 1

    def test_poison_request_is_tombstoned_with_structured_failure(
            self, tmp_path):
        spool = Spool(str(tmp_path), lease_timeout_s=0.05, max_reclaims=2)
        request = _request(tags={"case": "poison"})
        job_id = spool.submit(request)
        for round_ in range(3):  # takes out max_reclaims + 1 workers
            assert spool.claim(f"victim-{round_}") is not None
            time.sleep(0.12)
            assert spool.maintain() == 1
        assert spool.claim("survivor") is None  # not re-enqueued again
        result = spool.read_result(job_id)
        assert result is not None
        assert result.failure.kind == POISON_KIND
        assert "reclaimed 3 times" in result.failure.message
        assert result.makespan == float("inf")
        assert result.tags == {"case": "poison"}
        assert spool.counts()["tombstones"] == 1

    def test_result_write_is_atomic_and_idempotent(self, tmp_path):
        spool = Spool(str(tmp_path))
        job_id = spool.submit(_request())
        _, payload = spool.claim("w1")
        result = solve_batch([ScheduleRequest.from_dict(payload["request"])])[0]
        spool.write_result(job_id, result, "w1")
        spool.write_result(job_id, result, "w2")  # duplicate landing is fine
        assert _strip(spool.read_result(job_id)) == _strip(result)
        # no stray staging files survive the atomic renames
        assert os.listdir(os.path.join(str(tmp_path), "tmp")) == []

    def test_stop_marker_roundtrip(self, tmp_path):
        spool = Spool(str(tmp_path))
        assert not spool.stop_requested()
        spool.request_stop()
        spool.request_stop()  # idempotent
        assert spool.stop_requested()
        spool.clear_stop()
        assert not spool.stop_requested()


# ----------------------------------------------------------------------
# The worker loop (in-process: shares the test registry)
# ----------------------------------------------------------------------
class TestWorkerLoop:
    def test_worker_drains_and_exits_on_stop(self, tmp_path):
        spool = Spool(str(tmp_path))
        ids = [spool.submit(r) for r in _sweep_requests(3)]
        done = threading.Event()

        def serve():
            run_worker(str(tmp_path), worker_id="w", poll_s=0.01)
            done.set()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        deadline = time.time() + 30.0
        while not all(spool.has_result(i) for i in ids):
            assert time.time() < deadline
            time.sleep(0.02)
        spool.request_stop()
        assert done.wait(10.0)

    def test_worker_max_idle_exit(self, tmp_path):
        completed = run_worker(str(tmp_path), worker_id="w",
                               poll_s=0.01, max_idle_s=0.05)
        assert completed == 0

    def test_worker_once_mode(self, tmp_path):
        spool = Spool(str(tmp_path))
        ids = [spool.submit(r) for r in _sweep_requests(2)]
        completed = run_worker(str(tmp_path), worker_id="w", once=True)
        assert completed == 1
        assert spool.has_result(ids[0]) and not spool.has_result(ids[1])

    def test_unexpected_exception_becomes_worker_error_envelope(
            self, tmp_path):
        """A bug in an algorithm (not a ReproError) must land a structured
        failure, not leave the parent polling a result that never comes."""

        @register_algorithm("buggy", summary="raises (queue worker tests)")
        def buggy(workflow, cluster, config=None):
            raise RuntimeError("boom: not a ReproError")

        try:
            spool = Spool(str(tmp_path))
            job_id = spool.submit(_request(algorithm="buggy", config=None,
                                           scale_memory=False))
            run_worker(str(tmp_path), worker_id="w", once=True)
            result = spool.read_result(job_id)
            assert result.failure.kind == WORKER_ERROR_KIND
            assert "boom" in result.failure.message
            assert result.makespan == float("inf")
        finally:
            unregister_algorithm("buggy")


# ----------------------------------------------------------------------
# Policy enforcement through the queue (attach mode, in-process worker)
# ----------------------------------------------------------------------
class TestQueuePolicies:
    def test_timeout_is_structured_and_identical_to_serial(
            self, attach_spool):
        release = threading.Event()

        @register_algorithm("slowq", summary="sleeps (queue timeout tests)")
        def slowq(workflow, cluster, config=None):
            release.wait(30.0)
            raise RuntimeError("released after the watchdog fired")

        try:
            request = _request(algorithm="slowq", config=None,
                               scale_memory=False,
                               policy=ExecutionPolicy(timeout_s=0.2))
            start = time.perf_counter()
            [via_queue] = solve_batch([request], backend="queue", parallel=1)
            assert time.perf_counter() - start < 20.0  # nothing hung
            [via_serial] = solve_batch([request], backend="serial")
            assert via_queue.failure.kind == "timeout"
            assert "timeout_s=0.2" in via_queue.failure.message
            assert _strip(via_queue) == _strip(via_serial)
        finally:
            release.set()
            unregister_algorithm("slowq")

    def test_retries_are_deterministic_through_the_queue(self, attach_spool,
                                                         tmp_path):
        counter = tmp_path / "attempts"
        counter.write_text("0")

        @register_algorithm("flakyq", summary="fails twice (queue tests)")
        def flakyq(workflow, cluster, config=None):
            from repro.api import get_algorithm
            from repro.utils.errors import NoFeasibleMappingError
            n = int(counter.read_text()) + 1
            counter.write_text(str(n))
            if n <= 2:
                raise NoFeasibleMappingError(f"transient failure #{n}")
            return get_algorithm("daghetmem").scheduler.run(workflow, cluster)

        try:
            request = _request(algorithm="flakyq", config=None,
                               policy=ExecutionPolicy(retries=2))
            [result] = solve_batch([request], backend="queue", parallel=1)
            assert result.success
            assert int(counter.read_text()) == 3  # exactly 2 retries
        finally:
            unregister_algorithm("flakyq")


# ----------------------------------------------------------------------
# Equivalence with serial — spawned worker subprocesses
# ----------------------------------------------------------------------
class TestQueueEquivalence:
    def test_queue_backend_is_registered_and_never_auto_routed(self):
        assert "queue" in available_backends()
        assert route(workers=8) != "queue"
        assert route(backend="queue", workers=8) == "queue"

    def test_serial_and_queue_sweeps_are_bit_identical(self):
        requests = _sweep_requests(6)
        serial = solve_batch(requests, backend="serial")
        queued = solve_batch(requests, parallel=2, backend="queue")
        assert [_strip(r) for r in queued] == [_strip(r) for r in serial]

    def test_sigkilled_worker_loses_no_requests(self):
        """Kill one of two workers mid-sweep: its claims must be
        re-enqueued on lease expiry and every submission complete with
        serial-identical results."""
        requests = _sweep_requests(8)
        serial = solve_batch(requests, backend="serial")
        backend = QueueBackend(lease_timeout_s=1.0)
        backend.open(2)
        try:
            subs = [backend.submit(r) for r in requests]
            # let the workers boot and start claiming, then kill one hard
            deadline = time.time() + 60.0
            while backend._spool.counts()["done"] == 0:
                assert time.time() < deadline
                time.sleep(0.05)
            os.kill(backend._workers[0].pid, signal.SIGKILL)
            queued = [s.result() for s in subs]
        finally:
            backend.close()
        assert [_strip(r) for r in queued] == [_strip(r) for r in serial]

    def test_workers_share_one_sqlite_cache(self, tmp_path):
        """Spawned workers get the batch's sqlite cache URI: repeats are
        served without re-solving and the second run is all hits."""
        requests = _sweep_requests(4)
        uri = f"sqlite://{tmp_path / 'shared.db'}"
        with open_cache(uri) as cache:
            first = solve_batch(requests, parallel=2, backend="queue",
                                cache=cache)
            stats = cache.stats()
            assert stats["misses"] == len(requests)
            assert stats["entries"] == len(requests)
            second = solve_batch(requests, parallel=2, backend="queue",
                                 cache=cache)
            stats = cache.stats()
            assert stats["hits"] == len(requests)
            assert stats["misses"] == len(requests)  # no second misses
        assert [_strip(r) for r in second] == [_strip(r) for r in first]


# ----------------------------------------------------------------------
# Backend object behaviour
# ----------------------------------------------------------------------
class TestQueueBackendObject:
    def test_fixed_spool_dir_is_not_deleted_on_close(self, tmp_path,
                                                     monkeypatch):
        spool_dir = str(tmp_path / "fixed")
        os.makedirs(spool_dir)
        monkeypatch.setenv(QUEUE_DIR_ENV, spool_dir)
        monkeypatch.setenv(QUEUE_SPAWN_ENV, "0")
        backend = QueueBackend()
        backend.open(1)
        backend.close()
        assert os.path.isdir(spool_dir)  # attach mode never owns the dir

    def test_private_spool_dir_is_cleaned_up(self, monkeypatch):
        monkeypatch.delenv(QUEUE_DIR_ENV, raising=False)
        monkeypatch.setenv(QUEUE_SPAWN_ENV, "0")
        backend = QueueBackend()
        backend.open(1)
        spool_dir = backend._spool_dir
        assert os.path.isdir(spool_dir)
        backend.close()
        assert not os.path.exists(spool_dir)

    def test_default_knobs_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_LEASE_S", "2.5")
        monkeypatch.setenv("REPRO_QUEUE_MAX_RECLAIMS", "7")
        backend = QueueBackend()
        assert backend._lease_timeout_s == 2.5
        assert backend._max_reclaims == 7

    def test_default_knobs_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_MAX_RECLAIMS", raising=False)
        assert QueueBackend()._max_reclaims == DEFAULT_MAX_RECLAIMS

    def test_bad_env_knob_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_LEASE_S", "soon")
        with pytest.raises(ValueError, match="REPRO_QUEUE_LEASE_S"):
            QueueBackend()

    def test_worker_cli_command_parses(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["worker", "/tmp/spool", "--id", "w9", "--lease", "5",
             "--max-idle", "30"])
        assert args.spool == "/tmp/spool"
        assert args.id == "w9"
        assert args.lease == 5.0
        assert args.max_idle == 30.0

    def test_scenario_run_accepts_workers_alias(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["scenario", "run", "spec.json", "--backend", "queue",
             "--workers", "3"])
        assert args.parallel == 3
        assert args.backend == "queue"
