"""Property-based tests for the CTG graph core.

Random insertion sequences of tasks and arcs (including self-loops, back
edges, duplicate arcs and arcs to tasks not yet added) are replayed on a
:class:`CTG` and on a brute-force model kept here: a task list and an arc
list in insertion order, with reachability by closure over the arc list.

1. ``add_edge`` raises :class:`CTGError` exactly when the arc is
   ill-formed (unknown endpoint, duplicate) or its head reaches its tail;
   a rejected arc leaves every query unchanged;
2. ``ancestors`` / ``descendants`` equal the transitive closure;
3. the topological order is topological and follows the generation rule:
   sources in task-insertion order, then each generation ordered by the
   position of the parent that releases a task (its last-placed
   predecessor) and, for one parent, by arc-insertion order;
4. ``copy()`` is structurally equal and independent of the original;
5. lists returned by the adjacency readers are the caller's to mutate.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ctg.graph import CTG
from repro.errors import CTGError

from tests.conftest import uniform_task

MAX_TASKS = 9
NAMES = [f"t{i}" for i in range(MAX_TASKS)]

@st.composite
def ops(draw):
    """Some tasks first (in a random order), then mostly arcs among them.

    A few arcs name any task and a few ops add any task, so arcs to tasks
    not (yet) added and duplicate tasks occur too.
    """
    names = draw(st.permutations(NAMES))[: draw(st.integers(1, MAX_TASKS))]
    some, any_ = st.sampled_from(names), st.sampled_from(NAMES)
    task_op = st.tuples(st.just("task"), any_)
    edge_op = st.tuples(st.just("edge"), some, some)
    stray_op = st.tuples(st.just("edge"), any_, any_)
    mixed = draw(
        st.lists(
            st.one_of(edge_op, edge_op, edge_op, task_op, stray_op),
            min_size=2 * len(names),
            max_size=60,
        )
    )
    return [("task", name) for name in names] + mixed


def closure(tasks, arcs):
    """``reach[u]``: every task reachable from ``u`` by one or more arcs."""
    reach = {t: set() for t in tasks}
    changed = True
    while changed:
        changed = False
        for src, dst in arcs:
            new = {dst} | reach[dst]
            if not new <= reach[src]:
                reach[src] |= new
                changed = True
    return reach


def snapshot(ctg):
    return (
        ctg.task_names(),
        [(e.src, e.dst, e.volume) for e in ctg.edges()],
        {
            n: (
                ctg.predecessors(n),
                ctg.successors(n),
                [(e.src, e.dst) for e in ctg.in_edges(n)],
                [(e.src, e.dst) for e in ctg.out_edges(n)],
            )
            for n in ctg.task_names()
        },
        ctg.topological_order(),
    )


def replay(sequence):
    """Apply ``sequence`` to a CTG and the model, checking each arc insert."""
    ctg = CTG(name="prop")
    tasks, arcs = [], []
    for volume, entry in enumerate(sequence):
        if entry[0] == "task":
            name = entry[1]
            if name in tasks:
                before = snapshot(ctg)
                try:
                    ctg.add_task(uniform_task(name, 1, 1))
                except CTGError:
                    assert snapshot(ctg) == before
                else:
                    raise AssertionError(f"duplicate task {name} accepted")
            else:
                ctg.add_task(uniform_task(name, 1, 1))
                tasks.append(name)
            continue
        _, src, dst = entry
        known = src in tasks and dst in tasks
        must_reject = (
            not known
            or (src, dst) in arcs
            or src == dst
            or src in closure(tasks, arcs)[dst]
        )
        before = snapshot(ctg)
        try:
            ctg.connect(src, dst, volume=float(volume))
        except CTGError:
            assert must_reject, f"{src}->{dst} wrongly rejected"
            assert snapshot(ctg) == before
        else:
            assert not must_reject, f"{src}->{dst} wrongly accepted"
            arcs.append((src, dst))
    return ctg, tasks, arcs


@settings(max_examples=100, deadline=None)
@given(ops())
def test_add_edge_rejects_exactly_the_cycles(sequence):
    ctg, tasks, arcs = replay(sequence)
    assert ctg.task_names() == tasks
    assert [(e.src, e.dst) for e in ctg.edges()] == arcs


@settings(max_examples=100, deadline=None)
@given(ops())
def test_reachability_is_the_transitive_closure(sequence):
    ctg, tasks, arcs = replay(sequence)
    reach = closure(tasks, arcs)
    for name in tasks:
        assert ctg.descendants(name) == reach[name]
        assert ctg.ancestors(name) == {t for t in tasks if name in reach[t]}


@settings(max_examples=100, deadline=None)
@given(ops())
def test_topological_order_follows_the_generation_rule(sequence):
    ctg, tasks, arcs = replay(sequence)
    order = ctg.topological_order()
    assert sorted(order) == sorted(tasks)
    pos = {name: i for i, name in enumerate(order)}
    assert all(pos[src] < pos[dst] for src, dst in arcs)

    preds = {t: [s for s, d in arcs if d == t] for t in tasks}
    generation = {}
    for name in order:  # predecessors come first: the order is topological
        generation[name] = 1 + max((generation[p] for p in preds[name]), default=-1)

    def key(name):
        if not preds[name]:
            return (0, tasks.index(name))
        releaser = max(preds[name], key=pos.__getitem__)
        return (generation[name], pos[releaser], arcs.index((releaser, name)))

    assert order == sorted(tasks, key=key)


@settings(max_examples=50, deadline=None)
@given(ops())
def test_copy_is_equal_and_independent(sequence):
    ctg, tasks, _ = replay(sequence)
    clone = ctg.copy()
    assert snapshot(clone) == snapshot(ctg)
    assert all(clone.task(n) is not ctg.task(n) for n in tasks)

    before = snapshot(ctg)
    clone.add_task(uniform_task("extra", 1, 1))
    for name in tasks:
        clone.task(name).deadline = 5.0
        clone.connect(name, "extra")
    assert snapshot(ctg) == before
    assert not any(ctg.task(n).has_deadline for n in tasks)
    assert "extra" not in ctg


@settings(max_examples=50, deadline=None)
@given(ops())
def test_returned_lists_do_not_alias_the_graph(sequence):
    ctg, tasks, _ = replay(sequence)
    before = snapshot(ctg)
    for name in tasks:
        for reader in (ctg.predecessors, ctg.successors, ctg.in_edges, ctg.out_edges):
            returned = reader(name)
            returned.append("bogus")
            returned.reverse()
        ctg.topological_order().clear()
        ctg.ancestors(name).add("bogus")
        ctg.descendants(name).clear()
    assert snapshot(ctg) == before
