"""Every public top-level definition in ``src/repro`` has a caller outside the tests.

A definition counts as used when some file under ``src/``, ``scripts/``,
``examples/``, ``benchmarks/`` or ``perfbench/`` names it: as a name, an
attribute, an import alias, or an identifier string (registry tables and
``getattr`` lookups name functions by string). A reference from inside the
definition's own body does not count, and neither do a package
``__init__``'s imports and any module's ``__all__``: a re-export is not
a use.

Decorated definitions (dataclasses, registered algorithms) and names that
start with ``_`` are not checked. A definition that only tests call is
deleted with its tests, unless the tests use it as an independent oracle;
those are listed in :data:`ALLOWED` with the reason they stay.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
SCANNED = ("src", "scripts", "examples", "benchmarks", "perfbench")

#: ``module:name`` -> why the definition stays although only tests call it
ALLOWED: Dict[str, str] = {
    "repro.core.mapping:simulate_mapping":
        "event-driven recompute of a mapping's makespan, independent of the "
        "analytic one; the mapping, HEFT, bandwidth and integration tests "
        "compare against it",
    "repro.generators.random_dag:random_workflow":
        "seeded random DAGs, the input of the traversal, partitioner and "
        "generator tests",
    "repro.memdag.segments:merge_segment_sequences":
        "reference segment merge the segment and memdag differential tests "
        "compare the engines with",
    "repro.memdag.segments:profile_of_traversal":
        "a traversal's memory profile step by step, the reference the "
        "segment tests check the decomposition against",
    "repro.partition.api:partition_quality":
        "independent recount of a partition's cut and balance, the oracle "
        "of the partitioner tests",
    "repro.memdag.traversal:best_first_traversal":
        "one traversal engine run alone, so tests can compare each engine "
        "with the brute-force minimum",
    "repro.memdag.traversal:sp_traversal":
        "one traversal engine run alone, so tests can compare each engine "
        "with the brute-force minimum",
    "repro.memdag.spize:layered_traversal":
        "one traversal engine run alone, so tests can compare each engine "
        "with the brute-force minimum",
}


def _module_name(path: Path) -> str:
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _public_definitions() -> List[Tuple[str, str, Path, ast.AST]]:
    out = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.decorator_list and not node.name.startswith("_")):
                out.append((_module_name(path), node.name, path, node))
    return out


def _references(tree: ast.AST, is_package_init: bool):
    """Yield ``(name, lineno)`` for every name the module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if is_package_init:
                continue
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _all_spans(tree: ast.AST) -> List[Tuple[int, int]]:
    """Line spans of a module's ``__all__`` assignments."""
    return [(node.lineno, node.end_lineno) for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)]


def _used_names(definitions) -> Set[Tuple[str, str]]:
    """``(module, name)`` of each definition referenced from outside itself."""
    own: Dict[Path, Dict[str, List[Tuple[int, int]]]] = {}
    owners: Dict[str, List[str]] = {}
    for module, name, path, node in definitions:
        own.setdefault(path, {}).setdefault(name, []).append(
            (node.lineno, node.end_lineno))
        owners.setdefault(name, []).append(module)

    used: Set[Tuple[str, str]] = set()
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            path = path.resolve()
            tree = ast.parse(path.read_text(), filename=str(path))
            is_init = path.name == "__init__.py"
            skip = _all_spans(tree)
            local = own.get(path, {})
            for name, line in _references(tree, is_init):
                if name not in owners:
                    continue
                if any(lo <= line <= hi for lo, hi in skip):
                    continue
                if any(lo <= line <= hi for lo, hi in local.get(name, ())):
                    continue  # inside the definition's own body
                used.update((module, name) for module in owners[name])
    return used


@functools.lru_cache(maxsize=None)
def _unused() -> Tuple[str, ...]:
    definitions = _public_definitions()
    used = _used_names(definitions)
    return tuple(sorted(f"{module}:{name}" for module, name, _, _ in definitions
                        if (module, name) not in used))


def test_every_public_definition_has_a_caller_outside_tests():
    unused = [key for key in _unused() if key not in ALLOWED]
    assert not unused, (
        "public definitions nothing outside tests/ calls; delete them with "
        "their tests, or list them in ALLOWED with the reason they stay: "
        + ", ".join(unused))


@pytest.mark.parametrize("key", sorted(ALLOWED))
def test_allowed_oracle_exists_and_is_still_test_only(key):
    """An ``ALLOWED`` entry names a live definition nothing else calls yet."""
    module, name = key.split(":")
    definitions = {(m, n) for m, n, _, _ in _public_definitions()}
    assert (module, name) in definitions, f"{key} no longer exists; drop it from ALLOWED"
    assert key in _unused(), f"{key} now has a caller outside tests; drop it from ALLOWED"
