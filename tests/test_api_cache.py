"""Tests of the on-disk result cache and the request fingerprint."""

import dataclasses
import json

import pytest

from repro.api import (
    ResultCache,
    ScheduleRequest,
    ScheduleResult,
    request_fingerprint,
    solve,
)
from repro.core.heuristic import DagHetPartConfig
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster, small_cluster

CONFIG = DagHetPartConfig(k_prime_values=(1, 4))


def _request(**overrides) -> ScheduleRequest:
    base = dict(workflow=generate_workflow("blast", 24, seed=1),
                cluster=default_cluster(), algorithm="daghetpart",
                config=CONFIG, scale_memory=True, want_mapping=False)
    base.update(overrides)
    return ScheduleRequest(**base)


class TestFingerprint:
    def test_stable_across_identical_requests(self):
        assert request_fingerprint(_request()) == request_fingerprint(_request())

    def test_tags_and_want_mapping_do_not_matter(self):
        a = _request(tags={"instance": "x"}, want_mapping=False)
        b = _request(tags={"other": 1}, want_mapping=True)
        assert request_fingerprint(a) == request_fingerprint(b)

    def test_algorithm_name_canonicalized(self):
        assert request_fingerprint(_request(algorithm="DagHetPart")) == \
            request_fingerprint(_request(algorithm="dag-het-part"))

    def test_sensitive_to_workflow_cluster_config_and_knobs(self):
        base = request_fingerprint(_request())
        others = [
            _request(workflow=generate_workflow("blast", 24, seed=2)),
            _request(cluster=small_cluster()),
            _request(cluster=default_cluster(bandwidth=2.0)),
            _request(algorithm="daghetmem", config=None),
            _request(config=DagHetPartConfig(k_prime_values=(1, 8))),
            _request(scale_memory=False),
        ]
        fingerprints = {request_fingerprint(r) for r in others}
        assert base not in fingerprints
        assert len(fingerprints) == len(others)  # all pairwise distinct

    def test_golden_fingerprint(self):
        # every stored jsonl/sqlite cache entry is keyed by this digest:
        # a change to the payload or to canonical_name orphans them all
        from repro.platform.cluster import Cluster
        from repro.platform.processor import Processor
        from repro.workflow.graph import Workflow

        wf = Workflow(name="golden")
        for u, (work, mem) in enumerate([(4.0, 2.0), (3.0, 1.5),
                                         (2.0, 1.0), (5.0, 2.5)]):
            wf.add_task(u, work=work, memory=mem)
        for u, v, c in [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 2.0), (2, 3, 1.0)]:
            wf.add_edge(u, v, c)
        cluster = Cluster([Processor("fast", 2.0, 8.0, kind="A"),
                           Processor("big", 1.0, 16.0, kind="B")],
                          bandwidth=1.0, name="golden-cluster")
        request = ScheduleRequest(workflow=wf, cluster=cluster,
                                  algorithm="Dag-Het_Part")
        assert request_fingerprint(request) == (
            "5b12ab967f50064f2f6c60d272fea5781da7cc25e1f33bd5de3105d6dade35eb")


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        request = _request()
        result = solve(request)
        with ResultCache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            assert cache.get(fp) is None
            cache.put(fp, result)
            got = cache.get(fp, request)
        assert got == result  # mapping excluded from frozen-dataclass eq
        assert got.makespan == result.makespan
        assert got.runtime == result.runtime  # cached runtime preserved

    def test_hit_takes_tags_from_incoming_request(self, tmp_path):
        request = _request(tags={"instance": "a"})
        result = solve(request)
        with ResultCache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            cache.put(fp, result)
            relabelled = _request(tags={"instance": "b", "extra": 1})
            got = cache.get(cache.fingerprint(relabelled), relabelled)
        assert got.tags == {"instance": "b", "extra": 1}

    def test_survives_reopen(self, tmp_path):
        request = _request()
        result = solve(request)
        path = str(tmp_path / "c")
        with ResultCache(path) as cache:
            cache.put(cache.fingerprint(request), result)
        with ResultCache(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.fingerprint(request), request) == result

    def test_truncated_final_line_is_skipped(self, tmp_path):
        """A crash mid-write leaves a partial line; the prefix stays usable."""
        request = _request()
        result = solve(request)
        path = str(tmp_path / "c")
        with ResultCache(path) as cache:
            cache.put(cache.fingerprint(request), result)
        with open(cache.path, "a") as fh:
            fh.write('{"fp": "deadbeef", "result": {"algo')  # torn write
        with ResultCache(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.fingerprint(request), request) == result
            # and the cache still accepts new entries afterwards
            other = _request(scale_memory=False)
            reopened.put(reopened.fingerprint(other), solve(other))
        with ResultCache(path) as final:
            assert len(final) == 2

    def test_duplicate_put_not_rewritten(self, tmp_path):
        request = _request()
        result = solve(request)
        with ResultCache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            cache.put(fp, result)
            cache.put(fp, dataclasses.replace(result, runtime=99.0))
        lines = [l for l in _read_bytes(cache.path).splitlines() if l.strip()]
        assert len(lines) == 1
        assert json.loads(lines[0])["result"]["runtime"] != 99.0

    def test_stats(self, tmp_path):
        request = _request()
        with ResultCache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            cache.get(fp)
            cache.put(fp, solve(request))
            cache.get(fp)
        assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _populated_cache(tmp_path, n=3):
    """A closed cache with ``n`` complete entries.

    Returns ``(directory, log file, [(fp, request)])``.
    """
    entries = []
    path = str(tmp_path / "c")
    with ResultCache(path) as cache:
        for seed in range(1, n + 1):
            request = _request(workflow=generate_workflow("blast", 24, seed=seed))
            fp = cache.fingerprint(request)
            cache.put(fp, solve(request))
            entries.append((fp, request))
    return path, cache.path, entries


class TestMidAppendCrashRecovery:
    """The process dies mid-append: the repaired index must drop exactly
    the torn entry — every byte-complete line before it stays served."""

    @pytest.mark.parametrize("keep", [0.02, 0.25, 0.5, 0.97])
    def test_torn_final_line_drops_only_that_entry(self, tmp_path, keep):
        path, cache_file, entries = _populated_cache(tmp_path)
        raw = _read_bytes(cache_file)
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        last_len = len(raw) - last_start
        # cut the final payload line `keep` of the way in (1 byte .. just
        # short of complete) — every prefix the OS could have flushed
        cut = last_start + max(1, min(last_len - 2, int(last_len * keep)))
        with open(cache_file, "r+b") as fh:
            fh.truncate(cut)

        with ResultCache(path) as reopened:
            assert len(reopened) == len(entries) - 1
            for fp, request in entries[:-1]:
                assert reopened.get(fp, request) is not None
            torn_fp, torn_request = entries[-1]
            assert torn_fp not in reopened
            assert reopened.get(torn_fp, torn_request) is None

    def test_missing_final_newline_alone_is_not_a_torn_entry(self, tmp_path):
        # dying between write() and the newline flush leaves complete
        # JSON without its terminator — that entry is still recoverable
        path, cache_file, entries = _populated_cache(tmp_path)
        size = len(_read_bytes(cache_file))
        with open(cache_file, "r+b") as fh:
            fh.truncate(size - 1)
        with ResultCache(path) as reopened:
            assert len(reopened) == len(entries)
            assert reopened.get(*entries[-1]) is not None

    def test_corrupt_middle_line_drops_only_that_entry(self, tmp_path):
        path, cache_file, entries = _populated_cache(tmp_path)
        lines = _read_bytes(cache_file).splitlines(keepends=True)
        assert len(lines) == 3
        # a hole punched mid-file (lost page, partial sector write): the
        # middle line's payload is garbage but its framing survives
        lines[1] = b'{"fp": "deadbeef", "result": {"alg\x00' + b"\n"
        with open(cache_file, "wb") as fh:
            fh.writelines(lines)

        with ResultCache(path) as reopened:
            assert len(reopened) == 2
            assert entries[0][0] in reopened and entries[2][0] in reopened
            assert entries[1][0] not in reopened

    @pytest.mark.parametrize("keep", [0.3, 0.8])
    def test_next_writer_repairs_the_torn_tail(self, tmp_path, keep):
        path, cache_file, entries = _populated_cache(tmp_path)
        raw = _read_bytes(cache_file)
        last_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        cut = last_start + max(1, int((len(raw) - last_start) * keep))
        with open(cache_file, "r+b") as fh:
            fh.truncate(cut)

        # the torn request is recomputed and re-appended; the fragment is
        # newline-terminated first so the new entry parses on its own line
        torn_fp, torn_request = entries[-1]
        with ResultCache(path) as reopened:
            assert reopened.get(torn_fp, torn_request) is None
            reopened.put(torn_fp, solve(torn_request))

        with ResultCache(path) as final:
            assert len(final) == len(entries)
            for fp, request in entries:
                assert final.get(fp, request) is not None
        # every line except the repaired fragment is valid JSON
        bad = [l for l in _read_bytes(cache_file).splitlines()
               if l and not _parses(l)]
        assert len(bad) == 1  # exactly the terminated torn fragment


def _parses(line: bytes) -> bool:
    try:
        json.loads(line.decode("utf-8"))
        return True
    except (ValueError, UnicodeDecodeError):
        return False


# ----------------------------------------------------------------------
# The CacheBackend interface: both storage backends, one behaviour suite
# ----------------------------------------------------------------------
@pytest.fixture(params=["jsonl", "sqlite"])
def make_cache(request, tmp_path):
    """Factory opening the same on-disk cache again and again."""
    from repro.api import open_cache
    kind = request.param
    uri = (f"sqlite://{tmp_path}/cache.db" if kind == "sqlite"
           else str(tmp_path / "cache-dir"))
    return lambda: open_cache(uri)


class TestCacheBackendContract:
    """The suite every backend must pass (retag, dedupe, reopen, stats)."""

    def test_put_get_roundtrip_and_retagging(self, make_cache):
        request = _request(tags={"instance": "a"})
        result = solve(request)
        with make_cache() as cache:
            fp = cache.fingerprint(request)
            assert cache.get(fp) is None
            cache.put(fp, result)
            relabelled = _request(tags={"instance": "b", "extra": 1})
            got = cache.get(cache.fingerprint(relabelled), relabelled)
        assert got.tags == {"instance": "b", "extra": 1}
        assert got.makespan == result.makespan
        assert got.runtime == result.runtime

    def test_survives_reopen(self, make_cache):
        request = _request()
        result = solve(request)
        with make_cache() as cache:
            cache.put(cache.fingerprint(request), result)
        with make_cache() as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.fingerprint(request), request) == result

    def test_reopen_without_close_is_crash_safe(self, make_cache):
        """Every completed put is durable even when close() never ran —
        the sqlite analogue of the JSONL torn-tail recovery."""
        request = _request()
        other = _request(scale_memory=False)
        cache = make_cache()
        cache.put(cache.fingerprint(request), solve(request))
        cache.put(cache.fingerprint(other), solve(other))
        # no close(): simulates the process dying between puts
        with make_cache() as reopened:
            assert len(reopened) == 2
            assert reopened.get(reopened.fingerprint(request), request) \
                is not None
        cache.close()

    def test_duplicate_put_ignored(self, make_cache):
        request = _request()
        result = solve(request)
        with make_cache() as cache:
            fp = cache.fingerprint(request)
            cache.put(fp, result)
            cache.put(fp, dataclasses.replace(result, runtime=99.0))
            assert len(cache) == 1
            assert cache.get(fp).runtime != 99.0

    def test_stats_and_contains(self, make_cache):
        request = _request()
        with make_cache() as cache:
            fp = cache.fingerprint(request)
            cache.get(fp)
            cache.put(fp, solve(request))
            cache.get(fp)
            assert fp in cache
            assert "0" * 64 not in cache
            assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}

    def test_served_through_iter_solve_batch(self, make_cache):
        from repro.api import iter_solve_batch
        requests = [_request(), _request(scale_memory=False)]
        with make_cache() as cache:
            first = list(iter_solve_batch(requests, cache=cache))
        with make_cache() as cache:
            second = list(iter_solve_batch(requests, cache=cache))
            assert cache.stats()["hits"] == 2
        assert [r.to_dict() for r in first] == [r.to_dict() for r in second]


class TestOpenedCache:
    """``opened_cache`` closes what it opened, and only that."""

    @pytest.fixture
    def closes(self, monkeypatch):
        closed = []
        original = ResultCache.close

        def close(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(ResultCache, "close", close)
        return closed

    def test_uri_is_opened_and_closed(self, tmp_path, closes):
        from repro.api.cache import opened_cache
        with opened_cache(str(tmp_path / "d")) as store:
            assert isinstance(store, ResultCache)
            assert closes == []
        assert closes == [store]

    def test_uri_is_closed_when_the_body_raises(self, tmp_path, closes):
        from repro.api.cache import opened_cache
        with pytest.raises(RuntimeError):
            with opened_cache(str(tmp_path / "d")):
                raise RuntimeError("boom")
        assert len(closes) == 1

    def test_open_backend_and_none_pass_through(self, tmp_path, closes):
        from repro.api.cache import opened_cache
        with ResultCache(str(tmp_path / "d")) as cache:
            with opened_cache(cache) as store:
                assert store is cache
            assert closes == []
        with opened_cache(None) as store:
            assert store is None
        assert closes == [cache]


class TestOpenCacheUri:
    def test_plain_directory_is_jsonl(self, tmp_path):
        from repro.api import open_cache
        with open_cache(str(tmp_path / "d")) as cache:
            assert isinstance(cache, ResultCache)

    def test_jsonl_scheme(self, tmp_path):
        from repro.api import open_cache
        with open_cache(f"jsonl://{tmp_path}/d") as cache:
            assert isinstance(cache, ResultCache)
            assert cache.directory == f"{tmp_path}/d"

    def test_sqlite_scheme_absolute(self, tmp_path):
        # sqlite:// + /abs/path — i.e. sqlite:///abs/path, three slashes
        from repro.api import open_cache
        from repro.api.cache_sqlite import SqliteResultCache
        with open_cache(f"sqlite://{tmp_path}/c.db") as cache:
            assert isinstance(cache, SqliteResultCache)
            assert cache.path == f"{tmp_path}/c.db"

    def test_sqlite_scheme_relative(self, tmp_path, monkeypatch):
        from repro.api import open_cache
        from repro.api.cache_sqlite import SqliteResultCache
        monkeypatch.chdir(tmp_path)
        with open_cache("sqlite://rel.db") as cache:
            assert isinstance(cache, SqliteResultCache)
        assert (tmp_path / "rel.db").exists()

    def test_open_backend_passes_through(self, tmp_path):
        from repro.api import open_cache
        cache = ResultCache(str(tmp_path / "d"))
        assert open_cache(cache) is cache
        cache.close()

    def test_non_string_rejected(self):
        from repro.api import open_cache
        with pytest.raises(TypeError, match="cache URI"):
            open_cache(42)

    def test_unknown_scheme_fails_loudly(self, tmp_path):
        from repro.api import open_cache
        for uri in ("sqlit://typo.db", "redis://host/0", "s3://bucket/key"):
            with pytest.raises(ValueError, match="unknown cache URI scheme"):
                open_cache(uri)
        assert not (tmp_path / "sqlit:").exists()

    def test_empty_locations_fail_with_clear_value_errors(self):
        """``open_cache("jsonl://")`` used to crash with a bare
        ``FileNotFoundError`` out of ``os.makedirs("")`` — empty
        locations must name the offending URI instead."""
        from repro.api import open_cache
        with pytest.raises(ValueError, match="jsonl://"):
            open_cache("jsonl://")
        with pytest.raises(ValueError, match="sqlite://"):
            open_cache("sqlite://")
        with pytest.raises(ValueError, match="empty"):
            open_cache("")
        with pytest.raises(ValueError, match="directory"):
            ResultCache("")
        from repro.api.cache_sqlite import SqliteResultCache
        with pytest.raises(ValueError, match="path"):
            SqliteResultCache("")


class TestFingerprintRoundTrip:
    def test_fingerprint_survives_json_round_trip(self):
        """A request that crosses a JSON boundary (queue spool, HTTP
        service) must keep its fingerprint: integer weights come back as
        floats, and ``4`` vs ``4.0`` must not hash differently — else a
        queue worker can never hit the cache entry its parent wrote."""
        request = _request()
        rebuilt = ScheduleRequest.from_dict(request.to_dict())
        assert request_fingerprint(rebuilt) == request_fingerprint(request)

    def test_int_and_float_weights_fingerprint_identically(self):
        from repro.platform.cluster import Cluster, Processor
        ints = Cluster(name="c", processors=(
            Processor(name="p0", speed=4, memory=16, kind="local"),
            Processor(name="p1", speed=2, memory=8, kind="local")))
        floats = Cluster(name="c", processors=(
            Processor(name="p0", speed=4.0, memory=16.0, kind="local"),
            Processor(name="p1", speed=2.0, memory=8.0, kind="local")))
        assert request_fingerprint(_request(cluster=ints)) == \
            request_fingerprint(_request(cluster=floats))


class TestThreadSafety:
    def test_concurrent_get_put_hammer(self, make_cache):
        """One shared cache driven from many threads (the service
        dispatcher pattern) must serialize cleanly behind the backend's
        own lock. Every thread puts the same fingerprints at the same
        time, so a JSONL put's "stored already?" check and its append
        race unless the lock spans both: each fingerprint must end up as
        one entry and one stored line or row, with no storage errors and
        counters that add up. (sqlite dedupes in SQL; there a missing
        lock shows as errors from statements interleaving on the one
        shared connection.) With a no-op lock both backends fail this on
        every run."""
        import sys
        import threading

        request = _request()
        result = solve(request)
        cache = make_cache()
        errors = []
        n_threads, n_fps = 32, 200
        fingerprints = [f"fp-{i}" for i in range(n_fps)]
        start = threading.Barrier(n_threads)

        def hammer(tid):
            try:
                start.wait()
                for i, fp in enumerate(fingerprints):
                    cache.put(fp, result)
                    assert cache.get(fp, request) is not None
                    assert fp in cache
                    assert f"missing-{tid}-{i}" not in cache
                    assert cache.get(f"missing-{tid}-{i}", request) is None
                    len(cache)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # force interleaving inside get/put
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(cache) == n_fps
        stats = cache.stats()
        assert stats["hits"] == n_threads * n_fps
        assert stats["misses"] == n_threads * n_fps
        cache.close()
        assert _stored_records(cache) == n_fps  # no fingerprint written twice
        # every entry the threads wrote survives a reopen
        reopened = make_cache()
        assert len(reopened) == n_fps
        reopened.close()


def _stored_records(cache) -> int:
    """Lines of a JSONL cache's log, or rows of a sqlite cache's table."""
    if cache.kind == "sqlite":
        import sqlite3
        conn = sqlite3.connect(cache.path)
        try:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        finally:
            conn.close()
    with open(cache.path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


class TestSqliteThreadSafety:
    def test_two_connections_share_one_database(self, tmp_path):
        """Two independent opens of the same file (two queue workers, or
        worker + parent) see each other's committed puts — WAL + busy
        timeout make the file itself the coordination point."""
        from repro.api.cache_sqlite import SqliteResultCache

        request = _request()
        result = solve(request)
        a = SqliteResultCache(str(tmp_path / "shared.db"))
        b = SqliteResultCache(str(tmp_path / "shared.db"))
        a.put("fp-from-a", result)
        assert b.get("fp-from-a", request) is not None
        b.put("fp-from-b", result)
        assert a.get("fp-from-b", request) is not None
        assert len(a) == len(b) == 2
        a.close()
        b.close()
