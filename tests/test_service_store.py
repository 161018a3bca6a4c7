"""JobStore: append-only durability, torn-line repair, restart recovery.

The crash tests truncate the log at every byte offset inside its final
line and require the reopened store to (a) load without error, (b)
replay the affected job at most one state older than it was, and (c)
self-repair on the next append.
"""

import dataclasses
import json
import os
from pathlib import Path

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

    def test_result_line_precedes_terminal_status(self, tmp_path):
        """A crash between finish()'s two appends must replay as running,
        never as done-without-result — so result goes to disk first."""
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            _finish_done(store, "a")
            path = store.path
        types = [json.loads(line)["type"]
                 for line in Path(path).read_text(encoding="utf-8").splitlines()]
        assert types.index("result") < len(types) - 1
        assert types[-1] == "status"  # terminal status is the last line


class TestTornLines:
    def _store_with_history(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            store.submit(_spec("b"))
            _finish_done(store, "a")
            return store.path

    def test_truncation_at_every_offset_in_the_last_line(self, tmp_path):
        path = self._store_with_history(tmp_path)
        data = Path(path).read_bytes()
        last_line_start = data[:-1].rfind(b"\n") + 1
        # stop short of len(data) - 1: a line missing only its newline is
        # complete JSON and rightly replays as the state it records
        for cut in range(last_line_start + 1, len(data) - 1):
            Path(path).write_bytes(data[:cut])
            with JobStore(str(tmp_path)) as store:
                # the torn line was job a's terminal "done" status; the
                # replay shows the result already on disk but the status
                # one step older — exactly the crash recovery contract
                assert store.jobs() == ["a", "b"]
                assert store.status("a").state == "running"
                assert store.result("a") is not None
                assert store.status("b").state == "queued"

    def test_next_append_repairs_the_torn_tail(self, tmp_path):
        path = self._store_with_history(tmp_path)
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[:-7])  # tear into the final line
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("c"))
        # the torn fragment stays (newline-terminated, skipped on load);
        # everything appended after it must parse cleanly
        lines = Path(path).read_bytes().split(b"\n")
        assert lines[-1] == b""  # file ends with a newline
        parsed = []
        for line in lines[:-1]:
            try:
                parsed.append(json.loads(line))
            except ValueError:
                parsed.append(None)  # exactly one: the repaired fragment
        assert parsed.count(None) == 1
        assert parsed[-1]["type"] == "status"
        assert parsed[-1]["job"]["id"] == "c"
        with JobStore(str(tmp_path)) as store:
            assert store.jobs() == ["a", "b", "c"]

    def test_garbage_lines_are_skipped(self, tmp_path):
        path = self._store_with_history(tmp_path)
        with open(path, "ab") as fh:
            fh.write(b"not json at all\n")
            fh.write(b'{"type": "martian", "job": {"id": "x"}}\n')
            fh.write(b'{"type": "status", "no_job_key": 1}\n')
        with JobStore(str(tmp_path)) as store:
            assert store.jobs() == ["a", "b"]
            assert store.status("a").state == "done"


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

    def test_spec_without_status_is_requeued(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            path = store.path
        # tear off the trailing queued-status line entirely
        lines = Path(path).read_bytes().splitlines(keepends=True)
        Path(path).write_bytes(b"".join(lines[:-1]))
        with JobStore(str(tmp_path)) as store:
            assert store.status("a") is None
            requeued, crashed = store.recover()
            assert (requeued, crashed) == (["a"], [])
            assert store.status("a").state == "queued"
            assert store.status("a").total == 1

    def test_terminal_jobs_are_left_alone(self, tmp_path):
        with JobStore(str(tmp_path)) as store:
            store.submit(_spec("a"))
            _finish_done(store, "a")
        with JobStore(str(tmp_path)) as store:
            assert store.recover() == ([], [])
            assert store.status("a").state == "done"
