"""Tests of the name lookups: algorithm registration (the one plug-in),
and the lookup contract every name table shares."""

import pytest

from repro.api import (
    SchedulerOutput,
    available_algorithms,
    canonical_name,
    get_algorithm,
    register_algorithm,
    unregister_algorithm,
)
from repro.core.heuristic import DagHetPartConfig
from repro.core.mapping import Mapping
from repro.generators.families import generate_workflow
from repro.platform.presets import default_cluster


class TestBuiltins:
    def test_builtins_registered(self):
        assert {"daghetmem", "daghetpart"} <= set(available_algorithms())

    def test_display_names_match_records(self):
        assert get_algorithm("daghetmem").display_name == "DagHetMem"
        assert get_algorithm("daghetpart").display_name == "DagHetPart"

    def test_daghetpart_declares_config_and_capabilities(self):
        info = get_algorithm("daghetpart")
        assert info.config_cls is DagHetPartConfig
        assert "k-prime-sweep" in info.capabilities
        assert info.summary

    def test_infos_sorted(self):
        names = available_algorithms()
        assert list(names) == sorted(names)
        assert [get_algorithm(name).name for name in names] == list(names)


class TestNameResolution:
    @pytest.mark.parametrize("alias", [
        "daghetpart", "DagHetPart", "dag-het-part", "dag_het_part",
        "DAG HET PART",
    ])
    def test_aliases_resolve(self, alias):
        assert get_algorithm(alias).name == "daghetpart"

    def test_canonical_name(self):
        assert canonical_name("Dag-Het_Part ") == "daghetpart"

    def test_canonical_name_rejects_non_str(self):
        with pytest.raises(TypeError):
            canonical_name(7)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(ValueError, match="unknown algorithm") as exc:
            get_algorithm("hexagonal")
        assert "daghetmem" in str(exc.value)
        assert "daghetpart" in str(exc.value)


class TestRegistration:
    """The algorithm registration contract."""

    def test_register_and_solve_through_every_entry_point(self):
        from repro.api import ScheduleRequest, solve

        @register_algorithm("first-fit-test", display_name="FirstFitTest",
                            capabilities=("test",))
        def first_fit(workflow, cluster, config):
            # trivially valid: everything in one block on the biggest node
            proc = cluster.by_memory_desc()[0]
            from repro.core.quotient import QuotientGraph
            from repro.memdag.requirement import RequirementCache
            cache = RequirementCache(workflow)
            q = QuotientGraph.from_partition(
                workflow, [set(workflow.tasks())], [proc])
            return SchedulerOutput(
                mapping=Mapping.from_quotient(q, cluster, cache,
                                              algorithm="FirstFitTest"))

        try:
            wf = generate_workflow("blast", 20, seed=3)
            cluster = default_cluster()
            # via the API façade
            result = solve(ScheduleRequest(workflow=wf, cluster=cluster,
                                           algorithm="first_fit_test",
                                           scale_memory=True))
            assert result.success and result.algorithm == "FirstFitTest"
            assert result.mapping.algorithm == "FirstFitTest"
        finally:
            unregister_algorithm("first-fit-test")
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("first-fit-test")

    def test_duplicate_name_rejected(self):
        @register_algorithm("dup-test")
        def algo(workflow, cluster, config):  # pragma: no cover - never run
            raise AssertionError

        try:
            with pytest.raises(ValueError, match="already registered"):
                register_algorithm("DUP_TEST")(algo)
        finally:
            unregister_algorithm("dup-test")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            register_algorithm("--__")

    def test_non_string_name_rejected(self):
        with pytest.raises(TypeError):
            register_algorithm(7)

    def test_function_must_return_output_or_mapping(self):
        @register_algorithm("bad-return-test")
        def bad(workflow, cluster, config):
            return 42
        try:
            wf = generate_workflow("blast", 16, seed=0)
            with pytest.raises(TypeError, match="SchedulerOutput"):
                get_algorithm("bad-return-test").scheduler.run(
                    wf, default_cluster(), None)
        finally:
            unregister_algorithm("bad-return-test")

    def test_unregister_unknown_is_noop(self):
        unregister_algorithm("never-registered")


# ----------------------------------------------------------------------
# One lookup contract for every name table (algorithms, execution
# backends, reaction policies, workflow formats)
# ----------------------------------------------------------------------
def _lookup_cases():
    from repro.api import registry as algorithms
    from repro.api.exec import backends
    from repro.ingest import registry as formats
    from repro.sim import policies

    # each case: kind, the {canonical name: entry} table, resolve(name),
    # names()
    return {
        "algorithm": ("algorithm", algorithms._ALGORITHMS, get_algorithm,
                      available_algorithms),
        "backend": ("execution backend", backends._BACKENDS,
                    backends.get_backend, backends.available_backends),
        "policy": ("reaction policy", policies._POLICIES,
                   policies.get_policy, policies.available_policies),
        "format": ("workflow format", formats._FORMATS, formats.get_format,
                   formats.available_formats),
    }


@pytest.fixture(params=["algorithm", "backend", "policy", "format"])
def registry(request):
    return _lookup_cases()[request.param]


def _registration_cases():
    # each case: register(name), resolve(name) -> registered class,
    # names(), unregister(name); the algorithm table is the only one that
    # takes registrations
    return {
        "algorithm": (register_algorithm,
                      lambda n: type(get_algorithm(n).scheduler),
                      available_algorithms, unregister_algorithm),
    }


def _throwaway():
    """A fresh scheduler class (anything with ``run``)."""
    return type("Throwaway", (), {"run": lambda self, *args: None})


@pytest.fixture(params=["algorithm"])
def registrable(request):
    register, resolve, names, unregister = \
        _registration_cases()[request.param]
    yield register, resolve, names, unregister
    unregister("contract-test")


class TestRegistryContract:
    @pytest.mark.parametrize("alias", [
        "contract-test", "CONTRACT_TEST", "Contract Test", "contracttest",
    ])
    def test_aliases_resolve(self, registry, monkeypatch, alias):
        _, table, resolve, names = registry
        # a key whose spellings differ in case, "-", "_" and spaces; the
        # shipped keys are single lowercase words
        entry = object()
        monkeypatch.setitem(table, "contracttest", entry)
        assert resolve(alias) is entry
        assert "contracttest" in names()

    def test_non_string_name_rejected(self, registry):
        _, _, resolve, _ = registry
        with pytest.raises(TypeError):
            resolve(7)

    def test_empty_name_rejected(self, registrable):
        register, _, _, _ = registrable
        with pytest.raises(ValueError, match="empty"):
            register("-_ ")

    def test_duplicate_leaves_first_entry(self, registrable):
        register, resolve, _, _ = registrable
        first, second = _throwaway(), _throwaway()
        register("contract-test")(first)
        with pytest.raises(ValueError, match="already registered"):
            register("Contract_Test")(second)
        assert resolve("contract-test") is first

    def test_unregister_unknown_is_noop(self, registrable):
        _, _, names, unregister = registrable
        before = names()
        unregister("never-registered")
        assert names() == before

    def test_unknown_name_lists_available(self, registry):
        kind, _, resolve, names = registry
        with pytest.raises(ValueError) as exc:
            resolve("no-such-entry")
        assert str(exc.value) == (f"unknown {kind} 'no-such-entry'; "
                                  f"available: {', '.join(names())}")

    def test_listing_is_sorted_canonical_keys(self, registry):
        _, table, resolve, names = registry
        listed = names()
        assert isinstance(listed, tuple) and listed
        assert list(listed) == sorted(table)
        for name in listed:
            assert canonical_name(name) == name
            assert resolve(name.upper()) is table[name]
