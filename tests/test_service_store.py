"""JobStore: one SQLite row per job, transactional writes, restart recovery.

The crash test SIGKILLs a writer mid-stream and requires the reopened
store to show every transition the writer saw committed, at most one
step more, and never a ``done`` job without its result.
"""

import dataclasses
import os
import signal
import subprocess
import sys

import pytest

from repro.service import JobResult, JobSpec, JobStatus, JobStore


def _spec(job_id, **tags):
    return JobSpec(id=job_id, kind="schedule",
                   payload={"algorithm": "daghetpart"},
                   submitted_at=1.5, tags=tags)


def _finish_done(store, job_id, n_results=2):
    status = store.status(job_id)
    store.update(dataclasses.replace(status, state="running"))
    result = JobResult(id=job_id,
                       results=tuple({"i": i} for i in range(n_results)),
                       n_ok=n_results)
    store.finish(dataclasses.replace(status, state="done",
                                     completed=n_results, ok=n_results),
                 result)
    return result


class TestLifecycle:
    def test_submit_update_finish_roundtrip(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            status = store.submit(_spec("a", origin="test"))
            assert status.state == "queued"
            assert status.total == 1
            result = _finish_done(store, "a")
            assert store.status("a").state == "done"
            assert store.result("a") == result
            assert store.jobs() == ["a"]
            assert "a" in store and len(store) == 1
            assert store.counts() == {"done": 1}

    def test_duplicate_id_rejected(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            with pytest.raises(ValueError, match="already exists"):
                store.submit(_spec("a"))

    def test_update_unknown_job_rejected(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            with pytest.raises(KeyError):
                store.update(JobStatus(id="ghost", state="running"))

    def test_finish_requires_terminal_state(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            with pytest.raises(ValueError, match="terminal"):
                store.finish(JobStatus(id="a", state="running"), None)

    def test_reopen_replays_everything(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            store.submit(_spec("b"))
            result = _finish_done(store, "a")
        with JobStore(str(tmp_path)) as store:
            assert store.jobs() == ["a", "b"]
            assert store.status("a").state == "done"
            assert store.status("b").state == "queued"
            assert store.result("a") == result
            assert store.result("b") is None
            assert store.spec("b") == _spec("b")


    def test_old_jsonl_store_is_refused(self, tmp_path):
        (tmp_path / "jobs.jsonl").write_text("")
        with pytest.raises(ValueError, match="jobs.jsonl"):
            JobStore(str(tmp_path))
        assert os.listdir(tmp_path) == ["jobs.jsonl"]


class TestRecovery:
    def test_running_jobs_get_crashed_tombstones(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            store.submit(_spec("b"))
            store.update(dataclasses.replace(store.status("a"),
                                             state="running"))
        with JobStore(str(tmp_path)) as store:
            requeued, crashed = store.recover()
            assert requeued == ["b"]
            assert crashed == ["a"]
            assert store.status("a").state == "crashed"
            assert "terminated" in store.status("a").error
        # the tombstone is durable: a third open sees it without recover()
        with JobStore(str(tmp_path)) as store:
            assert store.status("a").state == "crashed"
            assert store.recover() == (["b"], [])

    def test_terminal_jobs_are_left_alone(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            _finish_done(store, "a")
        with JobStore(str(tmp_path)) as store:
            assert store.recover() == ([], [])
            assert store.status("a").state == "done"


#: the writer the crash test kills: job i is submitted at step i, set
#: running at step i + 1 unless i % 3 == 0, and finished with a result at
#: step i + 2 when i % 3 == 2; each transition is printed once committed
_WRITER = """
import dataclasses, itertools, sys
from repro.service import JobResult, JobSpec, JobStore

store = JobStore(sys.argv[1])
statuses = {}
for step in itertools.count():
    job_id = f"j{step:05d}"
    statuses[job_id] = store.submit(JobSpec(
        id=job_id, kind="schedule", payload={"algorithm": "daghetpart"}))
    print(job_id, "queued", flush=True)
    if step >= 1 and (step - 1) % 3:
        job_id = f"j{step - 1:05d}"
        statuses[job_id] = dataclasses.replace(statuses[job_id],
                                               state="running")
        store.update(statuses[job_id])
        print(job_id, "running", flush=True)
    if step >= 2 and (step - 2) % 3 == 2:
        job_id = f"j{step - 2:05d}"
        store.finish(dataclasses.replace(statuses[job_id], state="done",
                                         completed=1, ok=1),
                     JobResult(id=job_id, results=({"step": step - 2},),
                               n_ok=1))
        print(job_id, "done", flush=True)
"""


def _plan(job_id):
    """The states job ``j<i>`` passes through, in order."""
    i = int(job_id[1:])
    return ["queued", "running", "done"][:1 + (i % 3 != 0) + (i % 3 == 2)]


class TestSigkill:
    def test_killed_writer_leaves_every_committed_transition(self, tmp_path):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        with subprocess.Popen(
                [sys.executable, "-c", _WRITER, str(tmp_path)],
                stdout=subprocess.PIPE, text=True, env=env) as proc:
            try:
                seen = [proc.stdout.readline() for _ in range(200)]
            finally:
                proc.kill()  # SIGKILL, mid-stream
            rest = proc.stdout.read()
        assert proc.returncode == -signal.SIGKILL
        # a line cut short by the kill has no newline and does not count
        lines = "".join(seen + [rest]).split("\n")[:-1]
        printed = {}
        for line in lines:
            job_id, state = line.split()
            printed[job_id] = state
        assert len(printed) > 60

        with JobStore(str(tmp_path)) as store:
            ids = store.jobs()
            assert ids == [f"j{i:05d}" for i in range(len(ids))]
            ahead = 0
            for job_id in ids:
                plan = _plan(job_id)
                state = store.status(job_id).state
                # the store holds what was printed, or one step more:
                # the write in flight when the kill landed
                step = plan.index(state) - (
                    plan.index(printed[job_id]) if job_id in printed else -1)
                assert step in (0, 1), (job_id, state, printed.get(job_id))
                ahead += step
                result = store.result(job_id)
                if state == "done":
                    assert result == JobResult(
                        id=job_id, results=({"step": int(job_id[1:])},),
                        n_ok=1)
                else:
                    assert result is None
            assert ahead <= 1
            assert set(printed) <= set(ids)
            states = {job_id: store.status(job_id).state for job_id in ids}
            requeued, crashed = store.recover()
            assert requeued == [j for j in ids if states[j] == "queued"]
            assert crashed == [j for j in ids if states[j] == "running"]
            assert requeued and crashed
        with JobStore(str(tmp_path)) as store:
            assert {store.status(j).state for j in crashed} == {"crashed"}
            assert store.recover() == (requeued, [])
