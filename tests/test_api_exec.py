"""Tests of the execution-backend API: policy, registry, routing, equivalence.

The contract under test: ``solve_batch`` is bit-for-bit identical (modulo
measured ``runtime``) across the ``serial`` and ``process`` backends; a
request whose ``ExecutionPolicy.timeout_s`` is exceeded
reports a structured ``FailureInfo(kind="timeout")`` on every backend
without hanging the batch; retries are deterministic.
"""

import dataclasses
import json
import threading
import time

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.api import (
    ExecutionPolicy,
    ScheduleRequest,
    SchedulerOutput,
    available_backends,
    create_backend,
    get_algorithm,
    get_backend,
    iter_solve_batch,
    register_algorithm,
    route,
    solve_batch,
    solve_with_policy,
    unregister_algorithm,
)
from repro.api.exec.routing import BACKEND_ENV
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster

BACKENDS = ("serial", "process")
FAST_CFG = DagHetPartConfig(k_prime_values=(1, 4))


def _request(**overrides) -> ScheduleRequest:
    base = dict(workflow=generate_workflow("blast", 24, seed=1),
                cluster=default_cluster(), algorithm="daghetpart",
                config=FAST_CFG, scale_memory=True, want_mapping=False)
    base.update(overrides)
    return ScheduleRequest(**base)


def _smoke_requests():
    return [
        _request(workflow=generate_workflow(family, 24, seed=seed),
                 algorithm=algorithm,
                 config=FAST_CFG if algorithm == "daghetpart" else None,
                 tags={"instance": f"{family}-{seed}"})
        for family, seed in (("blast", 1), ("bwa", 2))
        for algorithm in ("daghetmem", "daghetpart")
    ]


def _strip(result):
    return {k: v for k, v in result.to_dict().items() if k != "runtime"}


# ----------------------------------------------------------------------
# ExecutionPolicy: validation and JSON round trip
# ----------------------------------------------------------------------
class TestExecutionPolicy:
    def test_defaults(self):
        policy = ExecutionPolicy()
        assert policy.timeout_s is None
        assert policy.attempts == 1
        assert policy.on_timeout == "fail"

    @pytest.mark.parametrize("kwargs", [
        dict(timeout_s=0), dict(timeout_s=-1), dict(timeout_s=float("nan")),
        dict(timeout_s=float("inf")), dict(retries=-1),
        dict(retry_backoff=-0.1), dict(retry_backoff=float("inf")),
        dict(on_timeout="explode"),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExecutionPolicy(**kwargs)

    def test_backoff_doubles_per_retry(self):
        policy = ExecutionPolicy(retries=3, retry_backoff=0.5)
        assert [policy.backoff_s(i) for i in (1, 2, 3)] == [0.5, 1.0, 2.0]

    def test_json_round_trip(self):
        policy = ExecutionPolicy(timeout_s=2.5, retries=3, retry_backoff=0.1,
                                 on_timeout="requeue")
        assert ExecutionPolicy.from_json(policy.to_json()) == policy

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown ExecutionPolicy"):
            ExecutionPolicy.from_dict({"timeout": 5})

    def test_rides_on_request_round_trip(self):
        policy = ExecutionPolicy(timeout_s=9.0, retries=1)
        request = _request(policy=policy)
        rebuilt = ScheduleRequest.from_json(request.to_json())
        assert rebuilt.policy == policy

    def test_policy_excluded_from_fingerprint(self):
        from repro.api import request_fingerprint
        assert request_fingerprint(_request()) == \
            request_fingerprint(_request(policy=ExecutionPolicy(timeout_s=1)))

    def test_plain_dict_policy_coerced_at_construction(self):
        request = _request(policy={"timeout_s": 5.0, "retries": 2})
        assert request.policy == ExecutionPolicy(timeout_s=5.0, retries=2)

    def test_bad_policy_type_fails_at_construction(self):
        with pytest.raises(TypeError, match="ExecutionPolicy"):
            _request(policy=3.5)
        with pytest.raises(ValueError, match="unknown ExecutionPolicy"):
            _request(policy={"timeout": 5})  # misspelled field


POLICIES = st.builds(
    ExecutionPolicy,
    timeout_s=st.one_of(st.none(),
                        st.floats(min_value=1e-3, max_value=1e6,
                                  allow_nan=False, allow_infinity=False)),
    retries=st.integers(min_value=0, max_value=20),
    retry_backoff=st.floats(min_value=0.0, max_value=1e3,
                            allow_nan=False, allow_infinity=False),
    on_timeout=st.sampled_from(("fail", "requeue")),
)


class TestPolicyProperties:
    """Hypothesis round trips, mirroring the PR 4 envelope properties."""

    @given(policy=POLICIES)
    @settings(deadline=None, max_examples=60)
    def test_policy_json_round_trip(self, policy):
        assert ExecutionPolicy.from_json(policy.to_json()) == policy
        # strict JSON: no NaN/Infinity literals sneak through
        json.loads(policy.to_json())

    @given(policy=st.one_of(st.none(), POLICIES),
           backend=st.one_of(st.none(), st.sampled_from(BACKENDS)),
           parallel=st.one_of(st.none(), st.integers(-1, 16)),
           cache=st.one_of(st.none(), st.just("sqlite:///tmp/x.db"),
                           st.just("cache-dir")))
    @settings(deadline=None, max_examples=60)
    def test_execution_spec_round_trip(self, policy, backend, parallel, cache):
        from repro.api import ExecutionSpec
        spec = ExecutionSpec(backend=backend, parallel=parallel,
                             policy=policy, cache=cache)
        assert ExecutionSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec


# ----------------------------------------------------------------------
# Backend registry
# ----------------------------------------------------------------------
class TestBackendRegistry:
    def test_shipped_backends_registered(self):
        assert available_backends() == ("process", "queue", "serial")

    def test_canonical_names(self):
        assert get_backend("Serial").name == "serial"
        assert get_backend("pro-cess").name == "process"

    def test_unknown_backend_lists_valid_names(self):
        with pytest.raises(ValueError, match="serial"):
            get_backend("quantum")


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_explicit_override_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "process")
        assert route(backend="serial", workers=8) == "serial"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "queue")
        assert route(workers=8) == "queue"
        assert route(workers=0) == "queue"

    def test_bad_env_fails_loudly(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "quantum")
        with pytest.raises(ValueError, match="quantum"):
            route(workers=2)

    def test_serial_for_single_worker(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert route(workers=0) == "serial"
        assert route(workers=1) == "serial"

    def test_process_for_cpu_bound_batch(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert route(workers=4) == "process"


# ----------------------------------------------------------------------
# Policy enforcement on every backend
# ----------------------------------------------------------------------
@pytest.fixture
def slow_algorithm():
    """An algorithm that blocks far longer than any test timeout, until
    the teardown releases the watchdog's abandoned attempt."""
    release = threading.Event()

    @register_algorithm("slowpoke", summary="sleeps (timeout tests)")
    def slowpoke(workflow, cluster, config=None):
        release.wait(30.0)
        raise RuntimeError("released after the watchdog fired")

    yield "slowpoke"
    release.set()
    unregister_algorithm("slowpoke")


@pytest.fixture
def flaky_algorithm(tmp_path):
    """Fails with NoFeasibleMappingError until the Nth attempt, then
    delegates to daghetmem. Attempt counting goes through the filesystem
    so forked process workers share it."""
    counter = tmp_path / "attempts"
    counter.write_text("0")

    @register_algorithm("flaky", summary="fails twice then succeeds (tests)")
    def flaky(workflow, cluster, config=None):
        from repro.utils.errors import NoFeasibleMappingError
        n = int(counter.read_text()) + 1
        counter.write_text(str(n))
        if n <= 2:
            raise NoFeasibleMappingError(f"transient failure #{n}")
        return get_algorithm("daghetmem").scheduler.run(workflow, cluster)

    yield "flaky", counter
    unregister_algorithm("flaky")


class TestTimeouts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timeout_is_structured_on_every_backend(self, backend,
                                                    slow_algorithm):
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False,
                           policy=ExecutionPolicy(timeout_s=0.2))
        start = time.perf_counter()
        [result] = solve_batch([request], backend=backend, parallel=2)
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0  # the batch streamed; nothing hung
        assert not result.success
        assert result.failure.kind == "timeout"
        assert "timeout_s=0.2" in result.failure.message
        assert result.makespan == float("inf")
        assert result.n_blocks == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_timed_out_request_does_not_stall_the_rest(self, backend,
                                                       slow_algorithm):
        requests = [
            _request(tags={"i": 0}),
            _request(algorithm=slow_algorithm, config=None,
                     scale_memory=False, tags={"i": 1},
                     policy=ExecutionPolicy(timeout_s=0.2)),
            _request(workflow=generate_workflow("bwa", 24, seed=2),
                     tags={"i": 2}),
        ]
        results = solve_batch(requests, backend=backend, parallel=2)
        assert [r.tags["i"] for r in results] == [0, 1, 2]
        assert results[0].success and results[2].success
        assert results[1].failure.kind == "timeout"

    def test_timeout_cluster_name_matches_other_outcomes(self,
                                                         slow_algorithm):
        """scenario diff aligns records by cluster name, so a timed-out
        record must report the same (memory-scaled) cluster a successful
        run of the same request would."""
        wf = generate_workflow("blast", 24, seed=1)
        reference = solve_batch([_request(workflow=wf)])[0]
        [timed_out] = solve_batch([
            _request(workflow=wf, algorithm=slow_algorithm, config=None,
                     policy=ExecutionPolicy(timeout_s=0.1))])
        assert timed_out.failure.kind == "timeout"
        assert timed_out.cluster == reference.cluster
        assert timed_out.bandwidth == reference.bandwidth

    def test_timeout_rehydrates_as_execution_timeout_error(self,
                                                           slow_algorithm):
        from repro.utils.errors import ExecutionTimeoutError
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False,
                           policy=ExecutionPolicy(timeout_s=0.1))
        result = solve_with_policy(request)
        with pytest.raises(ExecutionTimeoutError):
            result.raise_if_failed()

    def test_timeouts_are_never_cached(self, slow_algorithm, tmp_path):
        from repro.api import open_cache
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False, want_mapping=False,
                           policy=ExecutionPolicy(timeout_s=0.1))
        with open_cache(str(tmp_path / "c")) as cache:
            [result] = list(iter_solve_batch([request], cache=cache))
            assert result.failure.kind == "timeout"
            assert len(cache) == 0  # execution artifacts don't poison reruns

    def test_no_policy_means_no_watchdog_overhead(self):
        # plain requests take the direct solve path (no attempt thread)
        [a] = solve_batch([_request()])
        [b] = solve_batch([_request(policy=ExecutionPolicy())])
        assert _strip(a) == _strip(b)


class TestRetries:
    def test_retries_exhaust_then_report_last_failure(self, flaky_algorithm):
        name, counter = flaky_algorithm
        request = _request(algorithm=name, config=None,
                           policy=ExecutionPolicy(retries=1))
        result = solve_with_policy(request)
        assert not result.success  # 2 attempts, both transient failures
        assert int(counter.read_text()) == 2

    def test_enough_retries_succeed(self, flaky_algorithm):
        name, counter = flaky_algorithm
        request = _request(algorithm=name, config=None,
                           policy=ExecutionPolicy(retries=2))
        result = solve_with_policy(request)
        assert result.success  # third attempt delegates to daghetmem
        assert int(counter.read_text()) == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retries_are_deterministic(self, backend):
        # a deterministic failure retried N times reproduces itself, and
        # two runs of the same policy agree bit for bit (modulo runtime)
        request = _request(
            workflow=generate_workflow("blast", 24, seed=3),
            policy=ExecutionPolicy(retries=2))
        one = solve_batch([request], backend=backend, parallel=2)
        two = solve_batch([request], backend=backend, parallel=2)
        assert [_strip(r) for r in one] == [_strip(r) for r in two]

    def test_on_timeout_fail_stops_immediately(self, slow_algorithm):
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False,
                           policy=ExecutionPolicy(timeout_s=0.15, retries=5,
                                                  on_timeout="fail"))
        start = time.perf_counter()
        result = solve_with_policy(request)
        assert result.failure.kind == "timeout"
        assert time.perf_counter() - start < 0.6  # one attempt, not six

    def test_on_timeout_requeue_retries(self, slow_algorithm):
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False,
                           policy=ExecutionPolicy(timeout_s=0.1, retries=2,
                                                  on_timeout="requeue"))
        start = time.perf_counter()
        result = solve_with_policy(request)
        elapsed = time.perf_counter() - start
        assert result.failure.kind == "timeout"
        assert elapsed >= 0.25  # three attempts spent their budgets


# ----------------------------------------------------------------------
# Cross-backend equivalence (the acceptance criterion)
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    def test_smoke_corpus_identical_across_backends(self):
        requests = _smoke_requests()
        reference = [_strip(r) for r in
                     solve_batch(requests, backend="serial")]
        got = [_strip(r) for r in
               solve_batch(requests, backend="process", parallel=2)]
        assert got == reference, "process diverged from serial"

    def test_streaming_order_preserved_on_every_backend(self):
        requests = _smoke_requests()
        expected = [r.tags["instance"] for r in requests]
        for backend in BACKENDS:
            results = list(iter_solve_batch(iter(requests), parallel=2,
                                            backend=backend, window=2))
            assert [r.tags["instance"] for r in results] == expected

    def test_cache_hits_identical_across_backends(self, tmp_path):
        from repro.api import open_cache
        requests = _smoke_requests()
        reference = None
        for backend in BACKENDS:
            with open_cache(f"sqlite://{tmp_path}/{backend}.db") as cache:
                results = solve_batch(requests, backend=backend, parallel=2,
                                      cache=cache)
                again = solve_batch(requests, backend=backend, parallel=2,
                                    cache=cache)
            stripped = [_strip(r) for r in again]
            assert [_strip(r) for r in results] == stripped
            if reference is None:
                reference = stripped
            else:
                assert stripped == reference

    def test_explicit_backend_object_lifecycle(self):
        backend = create_backend("process")
        backend.open(2)
        submission = backend.submit(_request())
        result = submission.result()
        assert submission.done() and result.success
        backend.close()


# ----------------------------------------------------------------------
# Within-run dedupe: duplicate requests solve once on parallel backends
# ----------------------------------------------------------------------
@pytest.fixture
def counting_algorithm(tmp_path):
    """Counts its solve calls through the filesystem (visible across
    forked process workers) before delegating to daghetmem."""
    counter = tmp_path / "solves"
    counter.write_text("")

    @register_algorithm("counting", summary="counts solves (dedupe tests)")
    def counting(workflow, cluster, config=None):
        with open(counter, "a") as fh:  # single-byte O_APPEND: atomic
            fh.write("x")
        time.sleep(0.05)  # keep the primary in flight while dupes arrive
        return get_algorithm("daghetmem").scheduler.run(workflow, cluster)

    yield "counting", counter
    unregister_algorithm("counting")


class TestWithinRunDedup:
    def _duplicated_requests(self, algorithm):
        wf_a = generate_workflow("blast", 24, seed=1)
        wf_b = generate_workflow("bwa", 24, seed=2)
        dup = _request(workflow=wf_a, algorithm=algorithm, config=None)
        other = _request(workflow=wf_b, algorithm=algorithm, config=None)
        # three copies of one computation interleaved with a second one
        return [dup, dup, other, dup]

    @pytest.mark.parametrize("backend", ("process",))
    def test_duplicates_solve_once_with_a_cache(self, backend, tmp_path,
                                                counting_algorithm):
        from repro.api import open_cache
        name, counter = counting_algorithm
        requests = self._duplicated_requests(name)
        with open_cache(f"sqlite://{tmp_path}/dedupe.db") as cache:
            results = solve_batch(requests, backend=backend, parallel=4,
                                  cache=cache)
            stats = cache.stats()
        assert all(r.success for r in results)
        # the bug: every duplicate used to submit its own solve because
        # the cache was only consulted at submit time, before the first
        # copy's result had landed
        assert len(counter.read_text()) == 2  # one per unique computation
        assert stats["misses"] == 2 and stats["hits"] == 2

    def test_parallel_counters_match_serial(self, tmp_path,
                                            counting_algorithm):
        """The dedupe path must count exactly like a serial run: one miss
        per unique computation, one hit per duplicate."""
        from repro.api import open_cache
        name, counter = counting_algorithm
        requests = self._duplicated_requests(name)
        with open_cache(f"sqlite://{tmp_path}/serial.db") as serial_cache:
            serial = solve_batch(requests, backend="serial",
                                 cache=serial_cache)
            serial_stats = serial_cache.stats()
        counter.write_text("")
        with open_cache(f"sqlite://{tmp_path}/process.db") as process_cache:
            parallel = solve_batch(requests, backend="process", parallel=4,
                                   cache=process_cache)
            process_stats = process_cache.stats()
        assert [_strip(r) for r in parallel] == [_strip(r) for r in serial]
        for key in ("hits", "misses", "entries"):
            assert process_stats[key] == serial_stats[key]

    def test_duplicates_of_a_timed_out_primary_resolve_inline(
            self, tmp_path, slow_algorithm):
        """A timeout is never cached, so a deferred duplicate finds no
        entry at drain time — it must re-solve inline (matching serial
        semantics) instead of yielding None or hanging."""
        from repro.api import open_cache
        request = _request(algorithm=slow_algorithm, config=None,
                           scale_memory=False,
                           policy=ExecutionPolicy(timeout_s=0.2))
        with open_cache(f"sqlite://{tmp_path}/t.db") as cache:
            results = solve_batch([request, request], backend="process",
                                  parallel=2, cache=cache)
            assert len(cache) == 0
        assert [r.failure.kind for r in results] == ["timeout", "timeout"]

    def test_no_dedupe_without_a_cache(self, counting_algorithm):
        """Without a cache there is no fingerprinting (the cache-less
        fast path must stay zero-overhead), so duplicates each solve."""
        name, counter = counting_algorithm
        requests = self._duplicated_requests(name)
        results = solve_batch(requests, backend="process", parallel=4)
        assert all(r.success for r in results)
        assert len(counter.read_text()) == 4
