"""Meta-tests on API quality: docstrings everywhere, exports resolvable,
determinism of the public pipeline."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro", "repro.workflow", "repro.platform", "repro.memdag",
    "repro.partition", "repro.core", "repro.generators", "repro.experiments",
    "repro.utils",
]


def _all_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                yield importlib.import_module(f"{pkg_name}.{info.name}")


class TestDocumentation:
    def test_every_module_has_docstring(self):
        missing = [m.__name__ for m in _all_modules() if not m.__doc__]
        assert not missing, f"modules without docstrings: {missing}"

    def test_every_public_function_has_docstring(self):
        missing = []
        for module in _all_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    if not obj.__doc__:
                        missing.append(f"{module.__name__}.{name}")
        assert not missing, f"functions without docstrings: {missing}"

    def test_every_public_class_has_docstring(self):
        missing = []
        for module in _all_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == module.__name__:
                    if not obj.__doc__:
                        missing.append(f"{module.__name__}.{name}")
        assert not missing, f"classes without docstrings: {missing}"


class TestExports:
    def test_top_level_all_resolves(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_all_resolves(self):
        for pkg_name in PACKAGES[1:]:
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"


class TestDeterminism:
    def test_public_pipeline_bitwise_stable(self):
        """Same seed, same mapping — across two fresh runs of everything."""
        from repro import (
            DagHetPartConfig,
            ScheduleRequest,
            default_cluster,
            generate_workflow,
            solve,
        )

        def run():
            wf = generate_workflow("genome", 70, seed=99)
            mapping = solve(ScheduleRequest(
                workflow=wf, cluster=default_cluster(), scale_memory=True,
                config=DagHetPartConfig(k_prime_strategy="doubling"))).mapping
            return (mapping.makespan(),
                    sorted((sorted(map(str, a.tasks)), a.processor.name)
                           for a in mapping.assignments))

        assert run() == run()
