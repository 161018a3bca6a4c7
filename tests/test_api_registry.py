"""Tests of the algorithm registry: registration, lookup, rejection."""

import pytest

from repro.api import (
    SchedulerOutput,
    algorithm_infos,
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
        infos = algorithm_infos()
        assert [i.name for i in infos] == sorted(i.name for i in infos)


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
# One contract for every name registry (algorithms, execution backends,
# reaction policies, workflow formats)
# ----------------------------------------------------------------------
def _registry_cases():
    from repro.api.exec import backends
    from repro.ingest import registry as formats
    from repro.sim import policies

    # each case: kind, register(name), resolve(name) -> registered object,
    # names(), unregister(name)
    return {
        "algorithm": ("algorithm", register_algorithm,
                      lambda n: type(get_algorithm(n).scheduler),
                      available_algorithms, unregister_algorithm),
        "backend": ("execution backend", backends.register_backend,
                    lambda n: backends.get_backend(n).factory,
                    backends.available_backends, backends.unregister_backend),
        "policy": ("reaction policy", policies.register_policy,
                   lambda n: type(policies.get_policy(n)),
                   policies.available_policies, policies._POLICIES.remove),
        "format": ("workflow format", formats.register_format,
                   lambda n: formats.get_format(n).importer,
                   formats.available_formats, formats.unregister_format),
    }


def _throwaway():
    """A fresh class every registry accepts (it has ``run`` and ``name``)."""
    from repro.sim.policies import ReactionPolicy
    return type("Throwaway", (ReactionPolicy,),
                {"run": lambda self, *args: None})


@pytest.fixture(params=["algorithm", "backend", "policy", "format"])
def registry(request):
    kind, register, resolve, names, unregister = \
        _registry_cases()[request.param]
    yield kind, register, resolve, names, unregister
    unregister("contract-test")


class TestRegistryContract:
    @pytest.mark.parametrize("alias", [
        "contract-test", "CONTRACT_TEST", "Contract Test", "contracttest",
    ])
    def test_aliases_resolve(self, registry, alias):
        _, register, resolve, names, _ = registry
        cls = register("contract-test")(_throwaway())
        assert resolve(alias) is cls
        assert "contracttest" in names()
        assert isinstance(names(), tuple)

    def test_empty_name_rejected(self, registry):
        _, register, _, _, _ = registry
        with pytest.raises(ValueError, match="empty"):
            register("-_ ")

    def test_non_string_name_rejected(self, registry):
        _, register, resolve, _, _ = registry
        with pytest.raises(TypeError):
            register(7)
        with pytest.raises(TypeError):
            resolve(7)

    def test_duplicate_leaves_first_entry(self, registry):
        _, register, resolve, _, _ = registry
        first, second = _throwaway(), _throwaway()
        register("contract-test")(first)
        with pytest.raises(ValueError, match="already registered"):
            register("Contract_Test")(second)
        assert resolve("contract-test") is first
        # only the policy registry stamps ``name``; a rejected class keeps
        # the base default everywhere
        assert second.name == ""

    def test_unknown_name_lists_available(self, registry):
        kind, _, resolve, names, _ = registry
        with pytest.raises(ValueError,
                           match=f"unknown {kind} 'no-such-entry'; "
                                 f"available: ") as exc:
            resolve("no-such-entry")
        assert all(name in str(exc.value) for name in names())

    def test_unregister_unknown_is_noop(self, registry):
        _, _, _, names, unregister = registry
        before = names()
        unregister("never-registered")
        assert names() == before
