"""The Communication Task Graph container.

:class:`CTG` holds the task/edge records from :mod:`repro.ctg.task` in
plain per-task adjacency lists (in edge-insertion order), enforces
acyclicity on every insert, and offers the query surface the schedulers
need (predecessors, successors, topological order, in/out edges with
volumes).

An insert is checked by one DFS over the tasks the new arc's head
reaches, looking for its tail; nothing else is walked.  The topological
order is the generation-by-generation Kahn order: sources in
task-insertion order, then each generation's children released in
edge-insertion order.  Schedules depend on that order, so it is pinned
by digest in the test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.ctg.task import CommEdge, Task
from repro.errors import CTGError


class CTG:
    """A directed acyclic communication task graph (paper Definition 1)."""

    def __init__(self, name: str = "ctg") -> None:
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._edges: Dict[Tuple[str, str], CommEdge] = {}
        # Per-task adjacency, each list in edge-insertion order: neighbour
        # names for the walks, arcs for the volume-aware readers.
        self._preds: Dict[str, List[str]] = {}
        self._succs: Dict[str, List[str]] = {}
        self._in: Dict[str, List[CommEdge]] = {}
        self._out: Dict[str, List[CommEdge]] = {}
        self._topo_cache: Optional[List[str]] = None

    # -- construction ------------------------------------------------------

    def add_task(self, task: Task) -> Task:
        if task.name in self._tasks:
            raise CTGError(f"duplicate task {task.name!r}")
        self._tasks[task.name] = task
        for adjacency in (self._preds, self._succs, self._in, self._out):
            adjacency[task.name] = []
        self._invalidate()
        return task

    def add_edge(self, edge: CommEdge) -> CommEdge:
        """Insert an arc; a rejected arc leaves the graph exactly as it was."""
        for endpoint in (edge.src, edge.dst):
            if endpoint not in self._tasks:
                raise CTGError(f"edge references unknown task {endpoint!r}")
        if (edge.src, edge.dst) in self._edges:
            raise CTGError(f"duplicate edge {edge.src}->{edge.dst}")
        if edge.src == edge.dst or edge.src in self._reach(edge.dst, self._succs):
            raise CTGError(f"edge {edge.src}->{edge.dst} would create a cycle")
        self._link(edge)
        return edge

    def _link(self, edge: CommEdge) -> None:
        """Store an arc already known to be new and to keep the graph acyclic."""
        self._edges[(edge.src, edge.dst)] = edge
        self._succs[edge.src].append(edge.dst)
        self._preds[edge.dst].append(edge.src)
        self._out[edge.src].append(edge)
        self._in[edge.dst].append(edge)
        self._invalidate()

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

    # The adjacency readers return fresh copies of the stored lists, so no
    # caller can mutate the graph through them.

    def predecessors(self, name: str) -> List[str]:
        try:
            return self._preds[name][:]
        except KeyError:
            raise self._unknown(name) from None

    def successors(self, name: str) -> List[str]:
        try:
            return self._succs[name][:]
        except KeyError:
            raise self._unknown(name) from None

    def in_edges(self, name: str) -> List[CommEdge]:
        """Incoming arcs of ``name`` — its receiving transactions (LCT)."""
        try:
            return self._in[name][:]
        except KeyError:
            raise self._unknown(name) from None

    def out_edges(self, name: str) -> List[CommEdge]:
        try:
            return self._out[name][:]
        except KeyError:
            raise self._unknown(name) from None

    def in_degree(self, name: str) -> int:
        return len(self.predecessors(name))

    def sources(self) -> List[str]:
        """Tasks with no predecessors (application entry points)."""
        return [n for n, preds in self._preds.items() if not preds]

    def sinks(self) -> List[str]:
        """Tasks with no successors."""
        return [n for n, succs in self._succs.items() if not succs]

    @staticmethod
    def _unknown(name: str) -> CTGError:
        return CTGError(f"unknown task {name!r}")

    def deadline_tasks(self) -> List[str]:
        """Tasks with a designer-specified (finite) deadline."""
        return [t.name for t in self._tasks.values() if t.has_deadline]

    # -- orders and reachability --------------------------------------------

    def topological_order(self) -> List[str]:
        """A cached topological order of all tasks.

        Kahn's algorithm one generation at a time: generation 0 is the
        sources in task-insertion order; each task of a generation, in
        order, releases the children whose last incoming arc it was, in
        edge-insertion order, into the next generation.
        """
        if self._topo_cache is None:
            pending = {n: len(preds) for n, preds in self._preds.items() if preds}
            generation = self.sources()
            order: List[str] = []
            while generation:
                order.extend(generation)
                released = []
                for name in generation:
                    for child in self._succs[name]:
                        pending[child] -= 1
                        if not pending[child]:
                            released.append(child)
                generation = released
            self._topo_cache = order
        return list(self._topo_cache)

    def ancestors(self, name: str) -> set:
        return self._reach(name, self._preds)

    def descendants(self, name: str) -> set:
        return self._reach(name, self._succs)

    def _reach(self, name: str, adjacency: Dict[str, List[str]]) -> set:
        """Every task reachable from ``name`` (excluded) along ``adjacency``."""
        if name not in adjacency:
            raise self._unknown(name)
        seen: set = set()
        stack = [name]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    # -- aggregate properties ----------------------------------------------

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
        """An independent copy: fresh tasks, the same (immutable) arcs."""
        clone = CTG(name=name or self.name)
        clone._tasks = {n: task.copy() for n, task in self._tasks.items()}
        clone._edges = dict(self._edges)
        clone._preds = {n: preds[:] for n, preds in self._preds.items()}
        clone._succs = {n: succs[:] for n, succs in self._succs.items()}
        clone._in = {n: arcs[:] for n, arcs in self._in.items()}
        clone._out = {n: arcs[:] for n, arcs in self._out.items()}
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
            # A disjoint union of DAGs is a DAG: no per-arc cycle check.
            for edge in src_ctg.edges():
                merged._link(
                    CommEdge(src=prefix + edge.src, dst=prefix + edge.dst, volume=edge.volume)
                )
        return merged

    def __repr__(self) -> str:
        n_dead = len(self.deadline_tasks())
        return (
            f"CTG({self.name!r}, tasks={self.n_tasks}, edges={self.n_edges}, "
            f"deadlines={n_dead})"
        )
