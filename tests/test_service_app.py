"""End-to-end service tests: HTTP round trips, parity with offline runs,
event streams, error surfaces, graceful shutdown, SIGTERM.

Each test boots a real :class:`ServiceApp` on an ephemeral port inside a
background event-loop thread and drives it with the blocking
:class:`ServiceClient` — the full wire path, not handler calls.
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.api import (
    AlgorithmSpec,
    FamilyGridSource,
    PlatformAxis,
    ScenarioSpec,
    ScheduleRequest,
    register_algorithm,
    run_scenario,
    solve,
    unregister_algorithm,
)
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster
from repro.service import JobStore, ServiceClient, ServiceError
from repro.service.app import ServiceApp


class RunningService:
    """A live service in a daemon thread, stopped via its own endpoint."""

    def __init__(self, store_dir, **kwargs):
        self._loop = None
        self.app = None
        self._failure = None
        started = threading.Event()

        def run():
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def main():
                self.app = ServiceApp(str(store_dir), **kwargs)
                await self.app.start(host="127.0.0.1", port=0)
                started.set()
                await self.app.wait_closed()

            try:
                loop.run_until_complete(main())
            except BaseException as exc:  # surface boot failures to the test
                self._failure = exc
                started.set()
            finally:
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        if not started.wait(20) or self._failure is not None:
            raise RuntimeError(f"service failed to start: {self._failure}")
        self.client = ServiceClient(f"http://127.0.0.1:{self.app.port}")

    def stop(self, timeout=30):
        if self._thread.is_alive():
            try:
                self.client.shutdown()
            except (ServiceError, OSError):
                pass
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "service did not drain in time"


@pytest.fixture
def service(tmp_path):
    svc = RunningService(tmp_path / "store")
    yield svc
    svc.stop()


def _request_dict(n=16, seed=1, algorithm="daghetpart", **tags):
    wf = generate_workflow("blast", n, seed=seed)
    return ScheduleRequest(workflow=wf, cluster=default_cluster(),
                           algorithm=algorithm, scale_memory=True,
                           tags=tags).to_dict()


def _raw_exchange(port, request):
    """Send ``request`` (latin-1), half-close, and read until the server
    closes; returns every byte it answered."""
    with socket.create_connection(("127.0.0.1", port), timeout=20) as sock:
        sock.sendall(request.encode("latin-1"))
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


class TestScheduleJobs:
    def test_submit_poll_result_matches_offline(self, service):
        payload = _request_dict(tags_instance="one")
        accepted = service.client.submit_schedule(payload)
        assert accepted["state"] == "queued"
        assert accepted["total"] == 1

        view = service.client.wait(accepted["id"], timeout=60)
        status = view["status"]
        assert status["state"] == "done"
        assert (status["completed"], status["ok"]) == (1, 1)
        assert view["kind"] == "schedule"
        (record,) = view["result"]["results"]

        offline = solve(ScheduleRequest.from_dict(payload))
        assert record["makespan"] == offline.makespan
        assert record["algorithm"] == offline.algorithm
        assert record["n_blocks"] == offline.n_blocks

    def test_healthz_stats_and_listing(self, service):
        accepted = service.client.submit_schedule(_request_dict())
        service.client.wait(accepted["id"], timeout=60)

        health = service.client.healthz()
        assert health["status"] == "ok"
        assert health["jobs"].get("done") == 1

        stats = service.client.stats()
        assert stats["uptime_s"] >= 0
        assert stats["completed_jobs"] == 1
        assert stats["completed_requests"] == 1
        assert stats["in_flight"] == 0
        assert stats["queue_depth"] == 0
        assert stats["jobs"] == {"done": 1}
        assert sum(b["jobs"] for b in stats["backends"].values()) == 1

        listing = service.client.jobs()
        assert [j["id"] for j in listing["jobs"]] == [accepted["id"]]
        assert listing["jobs"][0]["state"] == "done"

    def test_event_stream_ticks_and_ends(self, service):
        # hold the worker gate so the stream subscribes before the job
        # starts (a live subscriber sees start/tick/end; late ones only
        # what remains)
        service.app.dispatcher.hold()
        accepted = service.client.submit_schedule(_request_dict())
        release = threading.Timer(0.2, service.app.dispatcher.release)
        release.start()
        try:
            events = list(service.client.events(accepted["id"]))
        finally:
            release.cancel()
            service.app.dispatcher.release()
        kinds = [e["event"] for e in events]
        assert kinds[0] == "start"
        assert kinds[-1] == "end"
        ticks = [e for e in events if e["event"] == "tick"]
        assert len(ticks) == 1
        assert ticks[0]["completed"] == 1
        assert ticks[0]["ok"] is True
        assert events[-1]["state"] == "done"

    def test_event_stream_on_finished_job_just_ends(self, service):
        accepted = service.client.submit_schedule(_request_dict())
        service.client.wait(accepted["id"], timeout=60)
        events = list(service.client.events(accepted["id"]))
        assert [e["event"] for e in events] == ["end"]
        assert events[0]["state"] == "done"

    def test_unknown_algorithm_fails_the_job_not_the_server(self, service):
        payload = _request_dict()
        payload["algorithm"] = "not-a-registered-algorithm"
        accepted = service.client.submit_schedule(payload)
        status = service.client.wait(accepted["id"], timeout=60)["status"]
        assert status["state"] == "failed"
        assert "not-a-registered-algorithm" in status["error"]
        assert service.client.healthz()["status"] == "ok"


class TestScenarioJobs:
    def _spec(self):
        return ScenarioSpec(
            name="svc-parity",
            workflows=(FamilyGridSource(families=("blast", "bwa"),
                                        sizes=(16,), seed=5),),
            platforms=(PlatformAxis(preset="default", bandwidths=(1.0,)),),
            algorithms=(AlgorithmSpec("daghetpart"),
                        AlgorithmSpec("daghetmem")),
            scale_memory=True)

    def test_scenario_results_bit_identical_to_offline(self, service):
        spec = self._spec()
        accepted = service.client.submit_scenario(spec.to_dict())
        assert accepted["total"] == spec.size()
        view = service.client.wait(accepted["id"], timeout=120)
        assert view["status"]["state"] == "done"
        assert view["status"]["completed"] == spec.size()

        offline = list(run_scenario(spec))
        assert len(view["result"]["results"]) == len(offline)
        for record, expected in zip(view["result"]["results"], offline):
            assert record["workflow"] == expected.workflow
            assert record["algorithm"] == expected.algorithm
            assert record["makespan"] == expected.to_dict()["makespan"]

    def test_dynamics_block_is_replayed_like_offline(self, service):
        from repro.api.diff import diff_results, format_diff
        from repro.api.scenario import load_scenario

        spec = load_scenario("examples/specs/dynamics_smoke.json")
        accepted = service.client.submit_scenario(spec.to_dict())
        view = service.client.wait(accepted["id"], timeout=120)
        assert view["status"]["state"] == "done"
        records = view["result"]["results"]
        assert all("sim_event_log" in r["extra"] for r in records)
        diff = diff_results([r.to_dict() for r in run_scenario(spec)],
                            records)
        assert diff.clean, format_diff(diff)


class TestSharedCache:
    """Every job of the service shares the dispatcher's one cache."""

    def test_stats_describe_the_cache_backend(self, tmp_path):
        from repro.api.cache import describe_cache

        svc = RunningService(tmp_path / "store",
                             cache=f"sqlite://{tmp_path}/cache.db")
        try:
            payload = _request_dict()
            for _ in range(2):
                accepted = svc.client.submit_schedule(payload)
                svc.client.wait(accepted["id"], timeout=60)
            stats = svc.client.stats()["cache"]
            assert stats == describe_cache(svc.app.cache)
            assert stats == {"kind": "sqlite",
                             "location": str(tmp_path / "cache.db"),
                             "entries": 1, "hits": 1, "misses": 1,
                             "hit_rate": 0.5}
        finally:
            svc.stop()


class TestHeldGate:
    """With the gate held every accepted job waits in the one pool queue."""

    def test_held_jobs_all_queue_then_all_finish(self, tmp_path):
        from repro.service.dispatcher import Dispatcher

        n = 5

        async def scenario(store):
            dispatcher = Dispatcher(store, workers=2)
            await dispatcher.start()
            dispatcher.hold()
            ids = [dispatcher.submit("schedule", _request_dict(seed=i)).id
                   for i in range(n)]
            await asyncio.sleep(0.2)  # the pool's threads reach the gate
            held = dispatcher.stats()
            dispatcher.release()
            await dispatcher.drain()
            drained = dispatcher.stats()
            await dispatcher.stop()
            return ids, held, drained

        with JobStore(str(tmp_path / "store")) as store:
            ids, held, drained = asyncio.run(scenario(store))
            states = [store.status(job_id).state for job_id in ids]
        assert held["queue_depth"] == n
        assert held["in_flight"] == 0
        assert held["active"] == n
        assert states == ["done"] * n
        assert drained["queue_depth"] == 0
        assert drained["in_flight"] == 0
        assert drained["completed_jobs"] == n


class TestErrorSurfaces:
    def test_invalid_payloads_get_400(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.submit_schedule({"algorithm": "daghetpart"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            service.client.submit_scenario({"name": "no-axes"})
        assert err.value.status == 400
        # an unknown top-level key (here a typo of "algorithms") is
        # rejected, not silently dropped
        typo = {"name": "typo", "algorithm": [{"name": "daghetmem"}],
                "workflows": [{"kind": "real", "names": ["airrflow"]}]}
        with pytest.raises(ServiceError) as err:
            service.client.submit_scenario(typo)
        assert err.value.status == 400
        assert "unknown scenario field(s) ['algorithm']" in \
            err.value.payload["error"]

    @pytest.mark.parametrize("algorithm", [
        {"name": "daghetprt"},
        {"name": "portfolio"},
        {"name": "daghetpart", "config": {"k_prime_strat": "all"}},
        {"name": "daghetmem", "config": {"x": 1}},
        {"name": "daghetpart", "config": {"k_prime_strategy": "dubling"}},
    ], ids=["unknown-algorithm", "removed-algorithm", "unknown-config-field",
            "config-for-configless", "unknown-k-prime-strategy"])
    def test_algorithm_block_that_cannot_run_gets_400(self, service,
                                                      algorithm):
        # refused at submission, not accepted and failed as a job
        spec = {"name": "bad-algorithm", "algorithms": [algorithm],
                "workflows": [{"kind": "real", "names": ["airrflow"]}]}
        with pytest.raises(ServiceError) as err:
            service.client.submit_scenario(spec)
        assert err.value.status == 400
        assert service.client.stats()["peak_active"] == 0  # none accepted

    def test_unknown_ids_and_routes_get_404(self, service):
        with pytest.raises(ServiceError) as err:
            service.client.job("no-such-job")
        assert err.value.status == 404
        with pytest.raises(ServiceError) as err:
            service.client._call("GET", "/v1/nope")
        assert err.value.status == 404

    def test_wrong_method_gets_405(self, service):
        with pytest.raises(ServiceError) as err:
            service.client._call("GET", "/v1/schedule")
        assert err.value.status == 405

    @pytest.mark.parametrize("length", ["abc", "-5", "\xb2"])
    def test_bad_content_length_gets_400_and_close(self, service, caplog,
                                                   length):
        reply = _raw_exchange(service.app.port,
                              f"POST /v1/schedule HTTP/1.1\r\n"
                              f"Content-Length: {length}\r\n\r\n{{}}")
        assert reply.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert b"Connection: close" in reply
        assert b"bad Content-Length" in reply
        assert service.client.healthz()["status"] == "ok"
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_truncated_body_closes_quietly(self, service, caplog):
        reply = _raw_exchange(service.app.port,
                              "POST /v1/schedule HTTP/1.1\r\n"
                              "Content-Length: 100\r\n\r\n{\"algo")
        assert reply == b""
        # the round trip lets the loop finish the dropped connection
        assert service.client.healthz()["status"] == "ok"
        assert not [r for r in caplog.records if r.name == "asyncio"]


class TestGracefulShutdown:
    def test_shutdown_drains_persists_and_503s(self, tmp_path):
        from repro.api.envelopes import SchedulerOutput
        from repro.core.baseline import dag_het_mem

        @register_algorithm("sleepy-test", display_name="SleepyTest",
                            capabilities=("test-only",),
                            summary="daghetmem after a nap (shutdown test)")
        class SleepyScheduler:
            def run(self, workflow, cluster, config=None):
                time.sleep(0.4)
                return SchedulerOutput(mapping=dag_het_mem(workflow, cluster))

        svc = RunningService(tmp_path / "store", workers=2)
        try:
            ids = [svc.client.submit_schedule(
                       _request_dict(seed=i, algorithm="sleepy-test"))["id"]
                   for i in range(2)]
            svc.client.shutdown()  # returns 202 immediately, then drains
            # the drain window: in-flight jobs keep running, new work is
            # refused with 503 the moment draining begins
            with pytest.raises(ServiceError) as err:
                deadline = time.time() + 10
                while time.time() < deadline:
                    svc.client.submit_schedule(_request_dict())
            assert err.value.status == 503
            svc._thread.join(30)
            assert not svc._thread.is_alive()
        finally:
            unregister_algorithm("sleepy-test")
            svc.stop()

        # everything accepted before the drain landed durably as done
        with JobStore(str(tmp_path / "store")) as store:
            for job_id in ids:
                assert store.status(job_id).state == "done"
                assert store.result(job_id) is not None

    def test_sigterm_drains_like_the_endpoint(self, tmp_path):
        store_dir = tmp_path / "store"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve",
             "--port", "0", "--store", str(store_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env)
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line, line
            port = int(line.rsplit(":", 1)[1])
            client = ServiceClient(f"http://127.0.0.1:{port}")
            job_id = client.submit_schedule(_request_dict())["id"]
            client.wait(job_id, timeout=60)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, out
        assert "service drained and stopped" in out
        with JobStore(str(store_dir)) as store:
            assert store.status(job_id).state == "done"
