"""Declarative scenarios: one JSON spec → request grid → streamed results.

A :class:`ScenarioSpec` names an experiment the way the paper's evaluation
does — a cross-product of workflow sources (generator-family grids,
real-world models, workflow files), platform axes (cluster presets swept
over bandwidths and memory scalings), and an algorithm grid with
per-algorithm configs. The spec is frozen and JSON-round-trippable
(:meth:`ScenarioSpec.to_json` / :meth:`ScenarioSpec.from_json`), so every
workload is a file, not a Python driver:

>>> spec = ScenarioSpec(
...     name="bandwidth-study",
...     workflows=(FamilyGridSource(families=("bwa", "soykb"),
...                                 sizes=(300,), seed=5),),
...     platforms=(PlatformAxis(preset="default",
...                             bandwidths=(0.1, 0.5, 1.0, 2.0, 5.0)),),
...     algorithms=(AlgorithmSpec("daghetmem"),
...                 AlgorithmSpec("daghetpart",
...                               config={"k_prime_strategy": "doubling"})),
... )
>>> for result in run_scenario(spec):  # doctest: +SKIP
...     ...

:func:`expand` lazily compiles the cross-product into tagged
:class:`~repro.api.envelopes.ScheduleRequest` envelopes — workflows are
generated one at a time, so the grid is never materialised.
:func:`run_scenario` streams the requests through
:func:`~repro.api.batch.iter_solve_batch`, optionally consulting the
on-disk result cache (:func:`~repro.api.cache.open_cache`) so re-runs
and crashed sweeps resume instead of recompute.

The expansion order is deterministic: workflow sources in spec order,
instances in source order, then platforms × bandwidths × memory factors ×
algorithms — with a single platform entry this is exactly the
instance-major, algorithm-minor order of the classic corpus runner, so a
scenario reproduces the figure drivers' records bit-for-bit (modulo the
measured ``runtime``).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from numbers import Integral
from typing import (
    Any,
    Dict,
    Iterator,
    Mapping as TMapping,
    Optional,
    Tuple,
    Union,
)

from repro.api.batch import ProgressHook, iter_solve_batch
from repro.api.cache import CacheBackend, opened_cache
from repro.api.envelopes import ScheduleRequest, ScheduleResult
from repro.api.exec.policy import ExecutionPolicy
from repro.api.registry import get_algorithm
from repro.sim.events import DynamicsSpec
from repro.utils.records import Record, decoded, listed, tagged_decoder, tupled


# ----------------------------------------------------------------------
# Workflow sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FamilyGridSource(Record):
    """A grid of synthetic workflows: families × sizes × replications.

    ``families=None`` means every generator family; ``sizes=None`` resolves
    the corpus sizes (``REPRO_FULL``/``REPRO_SCALE``-aware) at expansion
    time, a mapping is per-category task counts, and a plain sequence of
    ints becomes the single category ``"custom"``. Per-instance seeds are
    derived exactly as the evaluation corpus derives them
    (``seed + stable_hash(f"{family}:{n}")``); ``replications > 1`` adds
    shifted-seed repeats whose instance names carry a ``#r<i>`` suffix.
    """

    kind = "families"

    families: Optional[Tuple[str, ...]] = None
    sizes: Optional[Any] = None  # None | {category: (n, ...)} | (n, ...)
    seed: int = 0
    replications: int = 1
    work_factor: float = 1.0

    def __post_init__(self):
        if self.families is not None:
            object.__setattr__(self, "families", tuple(self.families))
        sizes = self.sizes
        if sizes is not None:
            if isinstance(sizes, TMapping):
                sizes = {str(cat): tuple(int(n) for n in counts)
                         for cat, counts in sizes.items()}
            else:
                sizes = {"custom": tuple(int(n) for n in sizes)}
            object.__setattr__(self, "sizes", sizes)
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        seed = self.seed
        if hasattr(seed, "bit_generator"):
            # a numpy Generator stands for the int it derives the corpus
            # from, so the source stays JSON-round-trippable
            from repro.experiments.instances import seed_base
            object.__setattr__(self, "seed", seed_base(seed))
        elif isinstance(seed, bool) or not isinstance(seed, Integral):
            raise TypeError(f"FamilyGridSource seed must be an int or a numpy "
                            f"Generator, got {type(seed).__name__} {seed!r}")
        else:
            object.__setattr__(self, "seed", int(seed))

    def resolved_sizes(self) -> Dict[str, Tuple[int, ...]]:
        if self.sizes is not None:
            return dict(self.sizes)
        from repro.experiments.instances import synthetic_sizes
        return synthetic_sizes()

    def resolved_families(self) -> Tuple[str, ...]:
        if self.families is not None:
            return self.families
        from repro.generators.families import WORKFLOW_FAMILIES
        return tuple(WORKFLOW_FAMILIES)

    def count(self) -> int:
        n_sizes = sum(len(c) for c in self.resolved_sizes().values())
        return len(self.resolved_families()) * n_sizes * self.replications

    def instances(self) -> Iterator["Instance"]:
        from repro.experiments.instances import Instance, seed_base
        from repro.generators.families import generate_workflow
        from repro.utils.rng import stable_hash

        base = seed_base(self.seed)
        sizes = self.resolved_sizes()
        for rep in range(self.replications):
            suffix = "" if rep == 0 else f"#r{rep}"
            for family in self.resolved_families():
                for category, counts in sizes.items():
                    for n in counts:
                        inst_seed = (base + rep
                                     + stable_hash(f"{family}:{n}")) % (2 ** 31)
                        wf = generate_workflow(family, n, seed=inst_seed,
                                               work_factor=self.work_factor)
                        yield Instance(name=f"{family}-{n}{suffix}",
                                       family=family, category=category,
                                       n_tasks_requested=n, workflow=wf)


@dataclass(frozen=True)
class RealWorkflowSource(Record):
    """The real-world-like workflow models (``names=None`` = all five)."""

    kind = "real"

    names: Optional[Tuple[str, ...]] = None
    seed: int = 0
    work_factor: float = 1.0

    def __post_init__(self):
        if self.names is not None:
            object.__setattr__(self, "names", tuple(self.names))

    def resolved_names(self) -> Tuple[str, ...]:
        if self.names is not None:
            return self.names
        from repro.generators.realworld import REAL_WORKFLOW_NAMES
        return tuple(REAL_WORKFLOW_NAMES)

    def count(self) -> int:
        return len(self.resolved_names())

    def instances(self) -> Iterator["Instance"]:
        from repro.experiments.instances import Instance
        from repro.generators.realworld import generate_real_workflow

        for name in self.resolved_names():
            yield Instance(
                name=name, family=name, category="real", n_tasks_requested=0,
                workflow=generate_real_workflow(name, seed=self.seed,
                                                work_factor=self.work_factor))


def _checked(wf, checksum: Optional[str], path: str):
    """Enforce a pinned content hash on an ingested workflow."""
    if checksum:
        from repro.ingest import workflow_fingerprint

        actual = workflow_fingerprint(wf)
        if actual != checksum:
            raise ValueError(
                f"{path}: workflow checksum mismatch — expected {checksum}, "
                f"ingested {actual} (the file changed since it was pinned)")
    return wf


@dataclass(frozen=True)
class FileWorkflowSource(Record):
    """One workflow ingested from a file in any registered format.

    ``format=None`` sniffs the content (see
    :func:`repro.ingest.detect_format`); ``checksum`` pins the ingested
    workflow's :func:`~repro.ingest.workflow_fingerprint`, so a silently
    edited trace fails the run instead of poisoning a cached sweep.
    """

    kind = "file"

    path: str = ""
    format: Optional[str] = None
    checksum: Optional[str] = None
    category: str = "file"
    family: Optional[str] = None  # defaults to the loaded workflow's name

    def __post_init__(self):
        if not self.path:
            raise ValueError("FileWorkflowSource needs a path")

    def count(self) -> int:
        return 1

    def instances(self) -> Iterator["Instance"]:
        from repro.experiments.instances import Instance
        from repro.ingest import ingest_path

        wf = _checked(ingest_path(self.path, fmt=self.format),
                      self.checksum, self.path)
        yield Instance(name=wf.name, family=self.family or wf.name,
                       category=self.category, n_tasks_requested=wf.n_tasks,
                       workflow=wf)


@dataclass(frozen=True)
class TemplateWorkflowSource(Record):
    """A workflow template rendered against data, then ingested.

    ``data`` is the inline substitution mapping; ``data_path`` loads it
    from a JSON file instead (exactly one may be given when the template
    uses variables). ``checksum`` pins the rendered workflow's content
    hash, same as :class:`FileWorkflowSource`.
    """

    kind = "template"

    path: str = ""
    data: Optional[Dict[str, Any]] = None
    data_path: Optional[str] = None
    name: Optional[str] = None
    checksum: Optional[str] = None
    category: str = "template"
    family: Optional[str] = None

    def __post_init__(self):
        if not self.path:
            raise ValueError("TemplateWorkflowSource needs a path")
        if self.data is not None and self.data_path is not None:
            raise ValueError("give either data or data_path, not both")
        if self.data is not None:
            object.__setattr__(self, "data", listed(self.data))

    def count(self) -> int:
        return 1

    def _resolved_data(self) -> Dict[str, Any]:
        if self.data_path is not None:
            with open(self.data_path, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
            if not isinstance(loaded, dict):
                raise ValueError(
                    f"{self.data_path}: template data must be a JSON object")
            return loaded
        return self.data or {}

    def instances(self) -> Iterator["Instance"]:
        from repro.experiments.instances import Instance
        from repro.ingest import ingest_path

        wf = _checked(
            ingest_path(self.path, fmt="template", name=self.name,
                        data=self._resolved_data()),
            self.checksum, self.path)
        yield Instance(name=wf.name, family=self.family or wf.name,
                       category=self.category, n_tasks_requested=wf.n_tasks,
                       workflow=wf)


_SOURCE_CLASSES = (FamilyGridSource, RealWorkflowSource,
                   FileWorkflowSource, TemplateWorkflowSource)
WorkflowSource = Union[_SOURCE_CLASSES]

source_from_dict = tagged_decoder(
    "workflow source", {cls.kind: cls for cls in _SOURCE_CLASSES})


# ----------------------------------------------------------------------
# Platform and algorithm axes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlatformAxis(Record):
    """One cluster preset swept over bandwidths and memory scalings.

    ``memory_factors`` multiply every processor memory (1.0 = the preset
    as-is), giving the "how much memory would we need" sweep; the paper's
    proportional per-workflow scaling rule is the separate, spec-level
    ``scale_memory`` knob.
    """

    preset: str = "default"
    bandwidths: Tuple[float, ...] = (1.0,)
    memory_factors: Tuple[float, ...] = (1.0,)

    def __post_init__(self):
        object.__setattr__(self, "bandwidths",
                           tuple(float(b) for b in self.bandwidths))
        object.__setattr__(self, "memory_factors",
                           tuple(float(f) for f in self.memory_factors))
        if not self.bandwidths or not self.memory_factors:
            raise ValueError("bandwidths and memory_factors must be non-empty")

    def count(self) -> int:
        return len(self.bandwidths) * len(self.memory_factors)

    def clusters(self) -> Iterator[Tuple["Cluster", float, float]]:
        """(cluster, bandwidth, memory_factor) for every axis point."""
        from repro.platform.presets import cluster_by_name

        for beta in self.bandwidths:
            base = cluster_by_name(self.preset, bandwidth=beta)
            for factor in self.memory_factors:
                cluster = base if factor == 1.0 else base.scaled_memories(factor)
                yield cluster, beta, factor


@dataclass(frozen=True)
class AlgorithmSpec(Record):
    """One algorithm of the grid, with its (JSON) config fields.

    ``config`` may be given as the algorithm's config dataclass instance —
    it is normalised to a plain field dict so the spec stays serializable;
    at expansion time the dict is instantiated back through the registry's
    ``config_cls``.
    """

    name: str = "daghetpart"
    config: Optional[TMapping[str, Any]] = None

    def __post_init__(self):
        config = self.config
        if config is not None:
            if dataclasses.is_dataclass(config) and not isinstance(config, type):
                config = dataclasses.asdict(config)
            config = {str(k): listed(v) for k, v in dict(config).items()}
            object.__setattr__(self, "config", config)

    def build_config(self) -> Optional[Any]:
        info = get_algorithm(self.name)  # raises on unknown names
        if self.config is None:
            return None
        if info.config_cls is None:
            raise ValueError(
                f"algorithm {self.name!r} takes no config, but the scenario "
                f"provides one: {dict(self.config)!r}")
        return info.config_cls(**{k: tupled(v) for k, v in self.config.items()})


#: the paper's algorithm pairing — the default grid
DEFAULT_ALGORITHMS = (AlgorithmSpec("daghetmem"), AlgorithmSpec("daghetpart"))


# ----------------------------------------------------------------------
# Execution block
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExecutionSpec(Record):
    """How a scenario wants to be executed (all fields optional).

    ``backend`` names a registered execution backend; ``parallel`` is
    the worker count (``-1`` = all CPUs); ``policy`` is the per-request
    :class:`~repro.api.exec.policy.ExecutionPolicy` attached to every
    expanded request; ``cache`` is a default cache URI
    (``sqlite:///path.db`` or a plain directory).
    Everything here is a *default* — explicit ``run_scenario`` arguments
    and CLI flags override it, and :func:`~repro.api.exec.routing.route`
    still applies when ``backend`` is left unset.
    """

    label = "execution"

    backend: Optional[str] = None
    parallel: Optional[int] = None
    policy: Optional[ExecutionPolicy] = None
    cache: Optional[str] = None

    def __post_init__(self):
        if self.backend is not None:
            from repro.api.exec.backends import get_backend
            object.__setattr__(self, "backend", get_backend(self.backend).name)
        if self.parallel is not None:
            object.__setattr__(self, "parallel", int(self.parallel))
        object.__setattr__(self, "policy",
                           decoded(self.policy, ExecutionPolicy.from_dict,
                                   ExecutionPolicy))


# ----------------------------------------------------------------------
# The spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec(Record):
    """A complete, frozen description of one experiment sweep.

    ``tags`` are templates: every string value is ``str.format``-ted per
    request with the expansion context (``scenario``, ``instance``,
    ``family``, ``category``, ``n_tasks``, ``preset``, ``bandwidth``,
    ``memory_factor``, ``algorithm``), so ``{"series": "{family}@{bandwidth}"}``
    labels each result without a Python driver. Non-string values pass
    through untouched.
    """

    label = "scenario"

    name: str
    workflows: Tuple[WorkflowSource, ...]
    platforms: Tuple[PlatformAxis, ...] = (PlatformAxis(),)
    algorithms: Tuple[AlgorithmSpec, ...] = DEFAULT_ALGORITHMS
    tags: TMapping[str, Any] = field(default_factory=dict)
    scale_memory: bool = True
    validate: bool = False
    description: str = ""
    #: optional execution defaults (backend, workers, per-request policy,
    #: cache URI); explicit run_scenario/CLI arguments override it
    execution: Optional[ExecutionSpec] = None
    #: optional dynamics block (perturbation models + reaction policy);
    #: set, :func:`expand` puts it on every request, so every front end
    #: and backend reports each plan's replay under it
    dynamics: Optional[DynamicsSpec] = None

    def __post_init__(self):
        if not self.workflows:
            raise ValueError("a scenario needs at least one workflow source")
        object.__setattr__(self, "workflows", tuple(
            decoded(s, source_from_dict, *_SOURCE_CLASSES)
            for s in self.workflows))
        object.__setattr__(self, "platforms", tuple(
            decoded(p, PlatformAxis.from_dict, PlatformAxis)
            for p in self.platforms))
        object.__setattr__(self, "algorithms", tuple(
            decoded(a, AlgorithmSpec.from_dict, AlgorithmSpec)
            for a in self.algorithms))
        object.__setattr__(self, "execution", decoded(
            self.execution, ExecutionSpec.from_dict, ExecutionSpec))
        object.__setattr__(self, "dynamics", decoded(
            self.dynamics, DynamicsSpec.from_dict, DynamicsSpec))
        if not self.platforms:
            raise ValueError("a scenario needs at least one platform axis")
        if not self.algorithms:
            raise ValueError("a scenario needs at least one algorithm")

    # ------------------------------------------------------------------
    def size(self) -> int:
        """Number of requests :func:`expand` will yield (cheap; no workflows
        are generated)."""
        instances = sum(src.count() for src in self.workflows)
        platform_points = sum(axis.count() for axis in self.platforms)
        return instances * platform_points * len(self.algorithms)

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        # hand-written for its key order: the layout of saved spec files
        return {name: listed(getattr(self, name)) for name in _SPEC_LAYOUT}

    def to_json(self, indent: Optional[int] = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)


_SPEC_LAYOUT = ("name", "description", "workflows", "platforms",
                "algorithms", "tags", "scale_memory", "validate",
                "execution", "dynamics")


def save_scenario(spec: ScenarioSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(spec.to_json() + "\n")


def load_scenario(path: str) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioSpec.from_json(fh.read())


# ----------------------------------------------------------------------
# Expansion and execution
# ----------------------------------------------------------------------
def _format_tags(templates: TMapping[str, Any],
                 context: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in templates.items():
        if isinstance(value, str):
            try:
                out[key] = value.format(**context)
            except KeyError as exc:
                valid = ", ".join(sorted(context))
                raise KeyError(
                    f"tag template {key!r} = {value!r} references unknown "
                    f"field {exc.args[0]!r}; available: {valid}") from None
        else:
            out[key] = value
    return out


def expand(spec: ScenarioSpec) -> Iterator[ScheduleRequest]:
    """Lazily compile the spec's cross-product into tagged requests.

    Workflows are generated one instance at a time and shared across the
    platform × algorithm inner grid; nothing is accumulated, so the
    iterator runs at constant memory regardless of grid size.
    """
    # resolve the algorithm grid and platform points once (also validates
    # names/presets eagerly, before any workflow is generated)
    algorithms = [(alg, get_algorithm(alg.name).display_name,
                   alg.build_config())
                  for alg in spec.algorithms]
    platforms = [(axis, tuple(axis.clusters())) for axis in spec.platforms]
    policy = spec.execution.policy if spec.execution is not None else None
    for source in spec.workflows:
        for inst in source.instances():
            for axis, points in platforms:
                for cluster, beta, factor in points:
                    for alg, display_name, config in algorithms:
                        context = {
                            "scenario": spec.name,
                            "instance": inst.name,
                            "family": inst.family,
                            "category": inst.category,
                            "n_tasks": inst.n_tasks,
                            "preset": axis.preset,
                            "bandwidth": beta,
                            "memory_factor": factor,
                            # display name, matching ScheduleResult.algorithm
                            "algorithm": display_name,
                        }
                        tags = {"instance": inst.name, "family": inst.family,
                                "category": inst.category,
                                "n_tasks": inst.n_tasks}
                        tags.update(_format_tags(spec.tags, context))
                        yield ScheduleRequest(
                            workflow=inst.workflow,
                            cluster=cluster,
                            algorithm=alg.name,
                            config=config,
                            scale_memory=spec.scale_memory,
                            validate=spec.validate,
                            want_mapping=False,
                            tags=tags,
                            policy=policy,
                            dynamics=spec.dynamics,
                        )


def run_scenario(spec: ScenarioSpec,
                 parallel: Optional[int] = None,
                 cache: Union[None, str, CacheBackend] = None,
                 progress: Optional[ProgressHook] = None,
                 backend: Optional[str] = None) -> Iterator[ScheduleResult]:
    """Stream the scenario's results in expansion order.

    ``cache`` is a cache URI (``sqlite:///path.db`` or a plain directory
    path) or an open
    :class:`~repro.api.cache.CacheBackend`; previously computed requests
    are served from it without a ``solve`` call, and fresh results are
    appended as they complete, so an interrupted sweep resumes for free.
    ``parallel``/``progress``/``backend`` behave as in
    :func:`~repro.api.batch.iter_solve_batch`. Arguments left at ``None``
    fall back to the spec's ``execution`` block before the usual
    environment defaults apply.
    """
    execution = spec.execution
    if execution is not None:
        if parallel is None:
            parallel = execution.parallel
        if backend is None:
            backend = execution.backend
        if cache is None:
            cache = execution.cache
    with opened_cache(cache) as store:
        yield from iter_solve_batch(expand(spec), parallel=parallel,
                                    progress=progress, cache=store,
                                    backend=backend)
