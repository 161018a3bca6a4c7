"""The :class:`Workflow` DAG with task and edge weights.

Implementation notes
--------------------
The class stores its own adjacency dictionaries rather than wrapping
``networkx.DiGraph``. Profiling the heuristics on 30k-task workflows showed
the hot paths are (a) repeated parent/children iteration during traversals
and (b) quotient-graph rebuilds; plain dicts with insertion-ordered
iteration are both faster and give deterministic iteration order without a
``sort`` on every query. Conversion helpers to/from networkx are provided
for interoperability and for tests that cross-check against networkx.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterator, List, Optional, Tuple

from repro.utils.errors import CyclicWorkflowError

Node = Hashable


class Workflow:
    """A directed acyclic workflow graph (Section 3.1 of the paper).

    Vertices (tasks) carry:

    * ``work``   — ``w_u``, the number of operations (makespan weight);
    * ``memory`` — ``m_u``, the memory needed by the computation itself.

    Edges ``(u, v)`` carry ``cost`` — ``c_{u,v}``, the size of the files
    written by ``u`` and read by ``v``.

    The *task memory requirement* is
    ``r_u = sum_in c + sum_out c + m_u`` (:meth:`task_requirement`).

    Acyclicity is **not** enforced on every ``add_edge`` (that would make
    construction quadratic); call :meth:`check_acyclic` or
    :func:`repro.workflow.validation.validate_workflow` after construction.
    All mutating generators in this library do so.
    """

    __slots__ = ("name", "_work", "_memory", "_succ", "_pred", "_n_edges",
                 "_in_total", "_out_total", "_positions")

    def __init__(self, name: str = "workflow"):
        self.name = name
        self._work: Dict[Node, float] = {}
        self._memory: Dict[Node, float] = {}
        self._succ: Dict[Node, Dict[Node, float]] = {}
        self._pred: Dict[Node, Dict[Node, float]] = {}
        self._n_edges = 0
        # per-node in/out-cost totals, memoized lazily and dropped on the
        # mutations that touch them (the partitioner calls
        # task_requirement for every node on every k' of the sweep)
        self._in_total: Dict[Node, float] = {}
        self._out_total: Dict[Node, float] = {}
        self._positions: Optional[Dict[Node, int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _touch(self) -> None:
        self._positions = None

    def add_task(self, u: Node, work: float = 1.0, memory: float = 0.0) -> None:
        """Add task ``u``; re-adding updates its weights in place."""
        if u not in self._work:
            self._succ[u] = {}
            self._pred[u] = {}
        self._work[u] = float(work)
        self._memory[u] = float(memory)
        self._touch()

    def add_edge(self, u: Node, v: Node, cost: float = 0.0) -> None:
        """Add edge ``(u, v)`` with file size ``cost``.

        Endpoints missing from the graph are created with default weights.
        Parallel edges are collapsed by summing their costs, matching the
        quotient-graph edge-weight definition.
        """
        if u == v:
            raise CyclicWorkflowError([u], f"self-loop on task {u!r}")
        if u not in self._work:
            self.add_task(u)
        if v not in self._work:
            self.add_task(v)
        if v in self._succ[u]:
            self._succ[u][v] += float(cost)
            self._pred[v][u] += float(cost)
        else:
            self._succ[u][v] = float(cost)
            self._pred[v][u] = float(cost)
            self._n_edges += 1
        self._out_total.pop(u, None)
        self._in_total.pop(v, None)
        self._touch()

    def remove_task(self, u: Node) -> None:
        """Remove task ``u`` and all incident edges."""
        for v in list(self._succ[u]):
            del self._pred[v][u]
            self._in_total.pop(v, None)
            self._n_edges -= 1
        for p in list(self._pred[u]):
            del self._succ[p][u]
            self._out_total.pop(p, None)
            self._n_edges -= 1
        del self._succ[u], self._pred[u], self._work[u], self._memory[u]
        self._in_total.pop(u, None)
        self._out_total.pop(u, None)
        self._touch()

    def remove_edge(self, u: Node, v: Node) -> None:
        del self._succ[u][v]
        del self._pred[v][u]
        self._n_edges -= 1
        self._out_total.pop(u, None)
        self._in_total.pop(v, None)
        self._touch()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self._work)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def __len__(self) -> int:
        return len(self._work)

    def __contains__(self, u: Node) -> bool:
        return u in self._work

    def tasks(self) -> Iterator[Node]:
        return iter(self._work)

    def edges(self) -> Iterator[Tuple[Node, Node, float]]:
        for u, nbrs in self._succ.items():
            for v, c in nbrs.items():
                yield u, v, c

    def positions(self) -> Dict[Node, int]:
        """Insertion rank of every task (cached until the next mutation)."""
        if self._positions is None:
            self._positions = {u: i for i, u in enumerate(self._work)}
        return self._positions

    def work(self, u: Node) -> float:
        return self._work[u]

    def memory(self, u: Node) -> float:
        return self._memory[u]

    def set_work(self, u: Node, work: float) -> None:
        if u not in self._work:
            raise KeyError(u)
        self._work[u] = float(work)
        self._touch()

    def set_memory(self, u: Node, memory: float) -> None:
        if u not in self._memory:
            raise KeyError(u)
        self._memory[u] = float(memory)
        self._touch()

    def edge_cost(self, u: Node, v: Node) -> float:
        return self._succ[u][v]

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def children(self, u: Node) -> Iterator[Node]:
        """Successor tasks ``C_u``."""
        return iter(self._succ[u])

    def parents(self, u: Node) -> Iterator[Node]:
        """Predecessor tasks ``Pi_u``."""
        return iter(self._pred[u])

    def out_edges(self, u: Node) -> Iterator[Tuple[Node, float]]:
        return iter(self._succ[u].items())

    def in_edges(self, u: Node) -> Iterator[Tuple[Node, float]]:
        return iter(self._pred[u].items())

    def adjacency(self) -> Tuple[Dict[Node, Dict[Node, float]], Dict[Node, float],
                                 Dict[Node, Dict[Node, float]]]:
        """``(parents, memory, children)`` of every task, for bulk readers.

        ``parents[u]`` maps each parent ``p`` to ``c_{p,u}`` and
        ``children[u]`` each child ``v`` to ``c_{u,v}``, in the order
        :meth:`in_edges` and :meth:`out_edges` yield them; ``memory[u]`` is
        ``m_u``. These are the workflow's own dicts, not copies: callers
        must not mutate them, and must not hold them across a mutation.
        ``sum(children[u].values())`` is exactly :meth:`out_cost`.
        """
        return self._pred, self._memory, self._succ

    def out_degree(self, u: Node) -> int:
        return len(self._succ[u])

    def in_degree(self, u: Node) -> int:
        return len(self._pred[u])

    def sources(self) -> List[Node]:
        """Tasks without parents."""
        return [u for u in self._work if not self._pred[u]]

    def targets(self) -> List[Node]:
        """Tasks without children."""
        return [u for u in self._work if not self._succ[u]]

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    def in_cost(self, u: Node) -> float:
        """Total size of ``u``'s input files (memoized per node).

        The memo is recomputed — never adjusted in place — so the value is
        always the exact left-to-right sum over the adjacency dict, no
        matter how many mutations happened in between.
        """
        total = self._in_total.get(u)
        if total is None:
            total = sum(self._pred[u].values())
            self._in_total[u] = total
        return total

    def out_cost(self, u: Node) -> float:
        """Total size of ``u``'s output files (memoized per node)."""
        total = self._out_total.get(u)
        if total is None:
            total = sum(self._succ[u].values())
            self._out_total[u] = total
        return total

    def task_requirement(self, u: Node) -> float:
        """``r_u = sum_in c + sum_out c + m_u`` (Section 3.1); O(1) amortized."""
        return self.in_cost(u) + self.out_cost(u) + self._memory[u]

    def total_work(self) -> float:
        return sum(self._work.values())

    def total_edge_cost(self) -> float:
        return sum(c for _, _, c in self.edges())

    def max_task_requirement(self) -> float:
        """Largest single-task requirement — a lower bound on any usable memory."""
        if not self._work:
            return 0.0
        return max(self.task_requirement(u) for u in self._work)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[Node]:
        """Kahn's algorithm; deterministic (insertion-order tie-breaking).

        Raises :class:`CyclicWorkflowError` if the graph has a cycle.
        """
        indeg = {u: len(self._pred[u]) for u in self._work}
        ready = [u for u in self._work if indeg[u] == 0]
        order: List[Node] = []
        head = 0
        while head < len(ready):
            u = ready[head]
            head += 1
            order.append(u)
            for v in self._succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
        if len(order) != len(self._work):
            raise CyclicWorkflowError(self.find_cycle())
        return order

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
            return True
        except CyclicWorkflowError:
            return False

    def check_acyclic(self) -> None:
        """Raise :class:`CyclicWorkflowError` if a cycle exists."""
        self.topological_order()

    def find_cycle(self) -> Optional[List[Node]]:
        """Return the vertices of one directed cycle, or None.

        Iterative DFS with an explicit stack (30k-task graphs overflow the
        recursion limit otherwise).
        """
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {u: WHITE for u in self._work}
        parent: Dict[Node, Optional[Node]] = {}
        for root in self._work:
            if color[root] != WHITE:
                continue
            stack: List[Tuple[Node, Iterator[Node]]] = [(root, iter(self._succ[root]))]
            color[root] = GRAY
            parent[root] = None
            while stack:
                u, it = stack[-1]
                advanced = False
                for v in it:
                    if color[v] == WHITE:
                        color[v] = GRAY
                        parent[v] = u
                        stack.append((v, iter(self._succ[v])))
                        advanced = True
                        break
                    if color[v] == GRAY:
                        cycle = [v, u]
                        x = parent[u]
                        while x is not None and x != v:
                            cycle.append(x)
                            x = parent[x]
                        cycle.reverse()
                        return cycle
                if not advanced:
                    color[u] = BLACK
                    stack.pop()
        return None

    def copy(self, name: Optional[str] = None) -> "Workflow":
        clone = Workflow(name or self.name)
        for u in self._work:
            clone.add_task(u, self._work[u], self._memory[u])
        for u, v, c in self.edges():
            clone.add_edge(u, v, c)
        return clone

    # ------------------------------------------------------------------
    # interoperability
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` with the same attribute names."""
        import networkx as nx

        g = nx.DiGraph(name=self.name)
        for u in self._work:
            g.add_node(u, work=self._work[u], memory=self._memory[u])
        for u, v, c in self.edges():
            g.add_edge(u, v, cost=c)
        return g

    @classmethod
    def from_networkx(cls, g, name: Optional[str] = None) -> "Workflow":
        """Import from a ``networkx.DiGraph``.

        Missing ``work``/``memory``/``cost`` attributes default to 1/0/0.
        """
        wf = cls(name or (g.graph.get("name") if hasattr(g, "graph") else None) or "workflow")
        for u, data in g.nodes(data=True):
            wf.add_task(u, data.get("work", 1.0), data.get("memory", 0.0))
        for u, v, data in g.edges(data=True):
            wf.add_edge(u, v, data.get("cost", 0.0))
        return wf

    def __repr__(self) -> str:
        return f"Workflow({self.name!r}, tasks={self.n_tasks}, edges={self.n_edges})"

    # ------------------------------------------------------------------
    # pickling (process execution backends ship workflows to workers);
    # caches are per-process scratch and are not serialized
    # ------------------------------------------------------------------
    def __getstate__(self):
        return {
            "name": self.name,
            "_work": self._work,
            "_memory": self._memory,
            "_succ": self._succ,
            "_pred": self._pred,
            "_n_edges": self._n_edges,
        }

    def __setstate__(self, state) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._in_total = {}
        self._out_total = {}
        self._positions = None
