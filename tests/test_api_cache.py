"""Tests of the on-disk result cache and the request fingerprint."""

import dataclasses

import pytest

from repro.api import (
    ScheduleRequest,
    open_cache,
    request_fingerprint,
    solve,
)
from repro.api.cache_sqlite import SqliteResultCache
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


def _golden_request(algorithm, config=None) -> ScheduleRequest:
    """A fixed 4-task request on a 2-processor cluster."""
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
    return ScheduleRequest(workflow=wf, cluster=cluster, algorithm=algorithm,
                           config=config)


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
        # every stored cache entry is keyed by this digest:
        # a change to the payload or to canonical_name orphans them all
        assert request_fingerprint(_golden_request("Dag-Het_Part")) == (
            "5b12ab967f50064f2f6c60d272fea5781da7cc25e1f33bd5de3105d6dade35eb")

    @pytest.mark.parametrize("algorithm, default_config, digest", [
        ("daghetmem", False, "7297d3c2c9fe7f8acb34537f1e5506b6"
                             "b51fc7562855e341de42e1c2f06c6915"),
        ("daghetpart", False, "5b12ab967f50064f2f6c60d272fea578"
                              "1da7cc25e1f33bd5de3105d6dade35eb"),
        ("daghetpart", True, "d7c4b7047a5ccdde2cf8ad5814900095"
                             "44fd182e6a394172094a41caca318b26"),
        ("heftlist", False, "fab95d6ce2f643749b27cddc34ca29f5"
                            "6d5c6996111842f1bc89b69757ddebe7"),
        ("cpack", False, "1788f2c3a5015651d5326e8c8562d7b0"
                         "8861018e1fb004582e97943f640ffade"),
        ("anneal", False, "d7a9d1839738052286db973df4e40d66"
                          "5a67bbe13a65a6a6771ad78a57252622"),
        ("anneal", True, "26fd3cd12afd46fba122f79d6b6fcfde"
                         "8a7465c3f7c1385462aef6f1278586e4"),
        ("exact", False, "7de9fac0f1253ab81d42fcd7230b364c"
                         "98b7c123169a032b06c68af02431ce24"),
        ("exact", True, "fe93278c89177f7e5206125e36c5f40a"
                        "11773335df07298f19fa99c706e8caf3"),
    ])
    def test_pinned_fingerprints(self, algorithm, default_config, digest):
        # digests of existing cache lines, one per algorithm, with
        # config=None and (where the algorithm takes one) its explicit
        # default config: a result cache written earlier must still hit
        from repro.api import get_algorithm
        config = get_algorithm(algorithm).config_cls() if default_config \
            else None
        request = _golden_request(algorithm, config=config)
        assert request_fingerprint(request) == digest


class TestResultCache:
    """The plain-directory form: ``open_cache(DIR)`` keeps its results in
    ``DIR/results.db``."""

    def test_put_get_roundtrip(self, tmp_path):
        request = _request()
        result = solve(request)
        with open_cache(str(tmp_path / "c")) as cache:
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
        with open_cache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            cache.put(fp, result)
            relabelled = _request(tags={"instance": "b", "extra": 1})
            got = cache.get(cache.fingerprint(relabelled), relabelled)
        assert got.tags == {"instance": "b", "extra": 1}

    def test_survives_reopen(self, tmp_path):
        request = _request()
        result = solve(request)
        path = str(tmp_path / "c")
        with open_cache(path) as cache:
            cache.put(cache.fingerprint(request), result)
        assert sorted(p.name for p in (tmp_path / "c").iterdir()
                      if not p.name.startswith("results.db-")) \
            == ["results.db"]
        with open_cache(path) as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.fingerprint(request), request) == result

    def test_duplicate_put_not_rewritten(self, tmp_path):
        request = _request()
        result = solve(request)
        path = str(tmp_path / "c")
        with open_cache(path) as cache:
            fp = cache.fingerprint(request)
            cache.put(fp, result)
            cache.put(fp, dataclasses.replace(result, runtime=99.0))
        assert _stored_records(cache) == 1
        with open_cache(path) as reopened:
            assert reopened.get(fp, request).runtime == result.runtime

    def test_stats(self, tmp_path):
        request = _request()
        with open_cache(str(tmp_path / "c")) as cache:
            fp = cache.fingerprint(request)
            cache.get(fp)
            cache.put(fp, solve(request))
            cache.get(fp)
            assert cache.stats() == {"entries": 1, "hits": 1, "misses": 1}
        with open_cache(str(tmp_path / "c")) as reopened:
            assert reopened.stats() == {"entries": 1, "hits": 0, "misses": 0}


# ----------------------------------------------------------------------
# The CacheBackend interface: both URI forms, one behaviour suite
# ----------------------------------------------------------------------
@pytest.fixture(params=["dir", "sqlite"])
def make_cache(request, tmp_path):
    """Factory opening the same on-disk cache again and again, by a plain
    directory or by a ``sqlite://`` URI."""
    uri = (f"sqlite://{tmp_path}/cache.db" if request.param == "sqlite"
           else str(tmp_path / "cache-dir"))
    return lambda: open_cache(uri)


class TestCacheBackendContract:
    """The suite every cache must pass (retag, dedupe, reopen, stats)."""

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
        """Every completed put is durable even when close() never ran."""
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
        original = SqliteResultCache.close

        def close(self):
            closed.append(self)
            original(self)

        monkeypatch.setattr(SqliteResultCache, "close", close)
        return closed

    def test_uri_is_opened_and_closed(self, tmp_path, closes):
        from repro.api.cache import opened_cache
        with opened_cache(str(tmp_path / "d")) as store:
            assert isinstance(store, SqliteResultCache)
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
        with open_cache(str(tmp_path / "d")) as cache:
            with opened_cache(cache) as store:
                assert store is cache
            assert closes == []
        with opened_cache(None) as store:
            assert store is None
        assert closes == [cache]


class TestOpenCacheUri:
    def test_plain_directory_opens_results_db(self, tmp_path):
        directory = tmp_path / "missing" / "d"
        request = _request()
        with open_cache(str(directory)) as cache:
            assert isinstance(cache, SqliteResultCache)
            assert cache.path == str(directory / "results.db")
            cache.put(cache.fingerprint(request), solve(request))
        assert (directory / "results.db").is_file()
        with open_cache(str(directory)) as reopened:
            assert len(reopened) == 1
            assert reopened.get(reopened.fingerprint(request), request) \
                is not None

    def test_jsonl_scheme(self, tmp_path, monkeypatch):
        # the retired JSONL store's scheme is refused, naming the valid
        # forms, and leaves nothing behind in the working directory
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError) as exc:
            open_cache(f"jsonl://{tmp_path}/d")
        assert str(exc.value) == (
            "unknown cache URI scheme 'jsonl://'; "
            "valid: sqlite:///PATH.db or a plain directory path")
        assert list(tmp_path.iterdir()) == []

    def test_sqlite_scheme_absolute(self, tmp_path):
        # sqlite:// + /abs/path — i.e. sqlite:///abs/path, three slashes
        with open_cache(f"sqlite://{tmp_path}/c.db") as cache:
            assert isinstance(cache, SqliteResultCache)
            assert cache.path == f"{tmp_path}/c.db"

    def test_sqlite_scheme_relative(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with open_cache("sqlite://rel.db") as cache:
            assert isinstance(cache, SqliteResultCache)
        assert (tmp_path / "rel.db").exists()

    def test_open_backend_passes_through(self, tmp_path):
        cache = open_cache(str(tmp_path / "d"))
        assert open_cache(cache) is cache
        cache.close()

    def test_non_string_rejected(self):
        with pytest.raises(TypeError, match="cache URI"):
            open_cache(42)

    def test_unknown_scheme_fails_loudly(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for uri in ("sqlit://typo.db", "redis://host/0", "s3://bucket/key"):
            with pytest.raises(ValueError) as exc:
                open_cache(uri)
            assert str(exc.value) == (
                f"unknown cache URI scheme {uri.split('://')[0] + '://'!r}; "
                f"valid: sqlite:///PATH.db or a plain directory path")
        assert list(tmp_path.iterdir()) == []

    def test_empty_locations_fail_with_clear_value_errors(self):
        """Empty locations name the offending URI instead of opening a
        ``results.db`` in the working directory."""
        with pytest.raises(ValueError, match="sqlite://"):
            open_cache("sqlite://")
        with pytest.raises(ValueError, match="empty"):
            open_cache("")
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
        time: each fingerprint must end up as one entry and one stored
        row, with no storage errors and counters that add up. (sqlite
        dedupes in SQL; a missing lock shows as errors from statements
        interleaving on the one shared connection.)"""
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
    """Rows of the cache's table, read through a fresh connection."""
    import sqlite3
    conn = sqlite3.connect(cache.path)
    try:
        return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
    finally:
        conn.close()


class TestSqliteThreadSafety:
    def test_two_connections_share_one_database(self, tmp_path):
        """Two independent opens of the same file (two queue workers, or
        worker + parent) see each other's committed puts — WAL + busy
        timeout make the file itself the coordination point."""

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
