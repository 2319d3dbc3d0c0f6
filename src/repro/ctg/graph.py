"""The Communication Task Graph container.

:class:`CTG` wraps a :class:`networkx.DiGraph` with the task/edge records
from :mod:`repro.ctg.task`, enforces acyclicity, and offers the query
surface the schedulers need (predecessors, successors, topological order,
in/out edges with volumes).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

from repro.ctg.task import CommEdge, Task
from repro.errors import CTGError


class CTG:
    """A directed acyclic communication task graph (paper Definition 1)."""

    def __init__(self, name: str = "ctg") -> None:
        self.name = name
        self._graph = nx.DiGraph()
        self._tasks: Dict[str, Task] = {}
        self._edges: Dict[Tuple[str, str], CommEdge] = {}
        self._topo_cache: Optional[List[str]] = None

    # -- construction ------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        if task.name in self._tasks:
            raise CTGError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        self._graph.add_node(task.name)
        self._invalidate()
        return task

    def add_edge(self, edge: CommEdge) -> CommEdge:
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._tasks:
                raise CTGError(f"edge references unknown task {endpoint!r}")
        key = (edge.src, edge.dst)
        if key in self._edges:
            raise CTGError(f"duplicate edge {edge.src}->{edge.dst}")
        self._graph.add_edge(edge.src, edge.dst)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_edge(edge.src, edge.dst)
            raise CTGError(f"edge {edge.src}->{edge.dst} would create a cycle")
        self._edges[key] = edge
        self._invalidate()
        return edge

    def connect(self, src: str, dst: str, volume: float = 0.0) -> CommEdge:
        """Shorthand for :meth:`add_edge`."""
        return self.add_edge(CommEdge(src=src, dst=dst, volume=volume))

    def _invalidate(self) -> None:
        self._topo_cache = None

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __iter__(self) -> Iterator[str]:
        return iter(self._tasks)

    @property
    def n_tasks(self) -> int:
        return len(self._tasks)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise CTGError(f"unknown task {name!r}") from None

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def task_names(self) -> List[str]:
        return list(self._tasks)

    def edge(self, src: str, dst: str) -> CommEdge:
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise CTGError(f"unknown edge {src}->{dst}") from None

    def edges(self) -> List[CommEdge]:
        return list(self._edges.values())

    def has_edge(self, src: str, dst: str) -> bool:
        return (src, dst) in self._edges

    def predecessors(self, name: str) -> List[str]:
        return list(self._graph.predecessors(name))

    def successors(self, name: str) -> List[str]:
        return list(self._graph.successors(name))

    def in_edges(self, name: str) -> List[CommEdge]:
        """Incoming arcs of ``name`` — its receiving transactions (LCT)."""
        return [self._edges[(p, name)] for p in self._graph.predecessors(name)]

    def out_edges(self, name: str) -> List[CommEdge]:
        return [self._edges[(name, s)] for s in self._graph.successors(name)]

    def in_degree(self, name: str) -> int:
        return self._graph.in_degree(name)

    def out_degree(self, name: str) -> int:
        return self._graph.out_degree(name)

    def sources(self) -> List[str]:
        """Tasks with no predecessors (application entry points)."""
        return [n for n in self._graph.nodes if self._graph.in_degree(n) == 0]

    def sinks(self) -> List[str]:
        """Tasks with no successors."""
        return [n for n in self._graph.nodes if self._graph.out_degree(n) == 0]

    def deadline_tasks(self) -> List[str]:
        """Tasks with a designer-specified (finite) deadline."""
        return [t.name for t in self._tasks.values() if t.has_deadline]

    # -- orders and reachability --------------------------------------------

    def topological_order(self) -> List[str]:
        """A cached topological order of all tasks."""
        if self._topo_cache is None:
            self._topo_cache = list(nx.topological_sort(self._graph))
        return list(self._topo_cache)

    def ancestors(self, name: str) -> set:
        return nx.ancestors(self._graph, name)

    def descendants(self, name: str) -> set:
        return nx.descendants(self._graph, name)

    # -- aggregate properties ----------------------------------------------

    def total_volume(self) -> float:
        return sum(e.volume for e in self._edges.values())

    def feasible_on(self, pe_types: Iterable[str]) -> bool:
        """Whether every task can run on at least one of ``pe_types``."""
        types = set(pe_types)
        return all(
            any(t in types for t in task.feasible_types()) for task in self._tasks.values()
        )

    def validate(self, pe_types: Optional[Sequence[str]] = None) -> None:
        """Raise :class:`CTGError` on structural problems.

        Checks: non-empty, acyclic (guaranteed by construction), every task
        either sources data or is a pure computation, and (if ``pe_types``
        is given) every task runs on at least one platform PE type.
        """
        if not self._tasks:
            raise CTGError(f"CTG {self.name!r} has no tasks")
        if pe_types is not None and not self.feasible_on(pe_types):
            bad = [
                t.name
                for t in self._tasks.values()
                if not set(t.feasible_types()) & set(pe_types)
            ]
            raise CTGError(f"tasks {bad} cannot execute on any platform PE type")
        for task in self._tasks.values():
            if not task.costs:
                raise CTGError(f"task {task.name!r} has no cost table")

    # -- transforms ----------------------------------------------------------

    def copy(self, name: Optional[str] = None) -> "CTG":
        clone = CTG(name=name or self.name)
        for task in self._tasks.values():
            clone.add_task(task.copy())
        for edge in self._edges.values():
            clone.add_edge(CommEdge(src=edge.src, dst=edge.dst, volume=edge.volume))
        return clone

    def with_scaled_deadlines(self, factor: float, name: Optional[str] = None) -> "CTG":
        """Copy of the CTG with every finite deadline multiplied by ``factor``.

        ``factor < 1`` tightens deadlines.  This is the one deadline-scaling
        transform: :class:`~repro.parallel.spec.BenchmarkSpec` applies it
        for a non-unit ``deadline_scale`` (the Fig. 7 sweep, where raising
        the required frame rate by ``r`` divides every deadline by ``r``,
        and the TXT-RT guaranteed-miss preset).
        """
        if factor <= 0:
            raise CTGError(f"deadline scale factor must be positive, got {factor}")
        clone = self.copy(name=name or f"{self.name}@x{factor:g}")
        for task in clone._tasks.values():
            if task.has_deadline:
                task.deadline = task.deadline * factor
        return clone

    def merged_with(self, other: "CTG", prefix_self: str = "", prefix_other: str = "") -> "CTG":
        """Disjoint union of two CTGs (used to build the integrated MSB app)."""
        merged = CTG(name=f"{self.name}+{other.name}")
        for src_ctg, prefix in ((self, prefix_self), (other, prefix_other)):
            for task in src_ctg.tasks():
                renamed = task.copy()
                renamed.name = prefix + task.name
                merged.add_task(renamed)
            for edge in src_ctg.edges():
                merged.add_edge(
                    CommEdge(src=prefix + edge.src, dst=prefix + edge.dst, volume=edge.volume)
                )
        return merged

    def __repr__(self) -> str:
        n_dead = len(self.deadline_tasks())
        return (
            f"CTG({self.name!r}, tasks={self.n_tasks}, edges={self.n_edges}, "
            f"deadlines={n_dead})"
        )
