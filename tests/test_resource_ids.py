"""Integer resource ids: the ``Link.key`` contract and the hot-path guard.

The schedule tables, the tentative overlay and the probe cache key every
resource by a plain int: a PE index, or a link's ``Link.key``.  These
tests pin the key's contract (injective, never a PE index, the same for
every ``Link`` naming a channel, including links loaded from a schedule
document), the loader boundary that keeps malformed coordinates out of
it, and the point of the change: scheduling, repairing and recovering
hash no ``Link`` dataclass at all.
"""

import collections
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import presets
from repro.arch.topology import LINK_COORD_BITS, LINK_KEY_TAG, Link
from repro.cli import main
from repro.core.eas import eas_base_schedule, eas_schedule
from repro.core.reference import LiteralTables
from repro.core.repair import miss_metric, search_and_repair
from repro.ctg.generator import generate_category
from repro.ctg.multimedia import av_decoder_ctg
from repro.errors import ArchitectureError, SerializationError
from repro.faults import FaultPlan, LinkFault, PEFault, inject_and_recover
from repro.schedule.entries import CommPlacement
from repro.schedule.overlay import ResourceTables
from repro.schedule.serialization import schedule_from_json, schedule_to_dict, schedule_to_json
from repro.schedule.table import EPS
from tests.test_property_tables import _apply, _placements

LIMIT = 1 << LINK_COORD_BITS
coordinate = st.integers(min_value=0, max_value=LIMIT - 1)
coord = st.tuples(coordinate, coordinate)
PRESETS = (presets.mesh_2x2, presets.mesh_3x3, presets.mesh_4x4, presets.mesh_5x5, presets.mesh_6x6)


# -- the key contract -------------------------------------------------------------


class TestLinkKey:
    @given(coord, coord, coord, coord)
    def test_injective_over_the_encodable_range(self, a, b, c, d):
        assert (Link(a, b).key == Link(c, d).key) == ((a, b) == (c, d))

    @given(coord, coord)
    def test_tagged_and_depends_on_coordinates_alone(self, a, b):
        link = Link(a, b)
        assert link.key >= LINK_KEY_TAG
        assert link.key == Link(tuple(a), tuple(b)).key
        assert link.key != link.reverse.key or a == b

    @pytest.mark.parametrize(
        "src, dst",
        [
            ((-1, 0), (0, 0)),
            ((0, LIMIT), (0, 0)),
            ((0, 0), (LIMIT, 0)),
            ((0, 1.0), (0, 0)),
            ((0, "1"), (0, 0)),
            ((0, 0, 0), (0, 1)),
        ],
    )
    def test_unencodable_coordinates_raise(self, src, dst):
        with pytest.raises(ArchitectureError):
            Link(src, dst)

    def test_key_is_not_compared(self):
        assert Link((0, 0), (0, 1)) == Link((0, 0), (0, 1))
        assert hash(Link((0, 0), (0, 1))) == hash(Link((0, 0), (0, 1)))
        assert repr(Link((0, 0), (0, 1))) == "Link((0, 0)->(0, 1))"

    @pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.__name__)
    def test_disjoint_from_pe_indices_on_every_preset(self, preset):
        acg = preset()
        keys = {link.key for link in acg.all_links()}
        assert len(keys) == len(acg.all_links())
        assert keys.isdisjoint(range(acg.n_pes))
        for src in acg.pes:
            for dst in acg.pes:
                route = acg.route(src.index, dst.index)
                assert route.link_keys == tuple(link.key for link in route.links)
                assert set(route.link_keys) <= keys


# -- filled tables meet keyed probes ---------------------------------------------

CHAIN = tuple(Link((0, i), (0, i + 1)) for i in range(4))
CHAIN_PATHS = tuple(CHAIN[i:j] for i in range(4) for j in range(i + 1, 5))
transfer = st.tuples(
    st.sampled_from(CHAIN_PATHS),
    st.integers(min_value=0, max_value=60).map(float),
    st.integers(min_value=1, max_value=12).map(float),
)


class TestFilledTablesMeetKeyedProbes:
    """``fill``/``undo`` store transactions under ``Link.key``, where the Fig. 3 pass probes."""

    @given(
        st.lists(transfer, max_size=8),
        st.sets(st.integers(min_value=0, max_value=7)),
        st.lists(st.integers(min_value=0, max_value=70).map(float), min_size=1, max_size=3),
    )
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_probe_by_key_avoids_filled_transfers(self, transfers, undone, readies):
        cached, literal = ResourceTables(), LiteralTables()
        kept = []
        for n, (links, start, length) in enumerate(transfers):
            if not all(cached.table(link.key).is_free(start, start + length) for link in links):
                continue
            comm = CommPlacement(f"s{n}", f"d{n}", 1.0, 0, 1, start, start + length, links, 0.0)
            cached.fill((), (comm,))
            literal.fill((), (comm,))
            kept.append(comm)
        for table in (cached, literal):
            table.undo((), [comm for n, comm in enumerate(kept) if n in undone])
        held = [comm for n, comm in enumerate(kept) if n not in undone]
        for links in CHAIN_PATHS:
            keys = tuple(link.key for link in links)
            for ready in readies:
                start = cached.overlay().find_earliest_on_path(keys, ready, 5.0)
                assert start == literal.overlay().find_earliest_on_path(keys, ready, 5.0)
                for comm in held:
                    if set(comm.links) & set(links):
                        assert start + 5.0 <= comm.start + EPS or comm.finish <= start + EPS


# -- the path cache vs the literal oracle, over keyed resources -----------------------

PES = (0, 1)
KEYED = PES + tuple(link.key for link in CHAIN)
ROUTES = CHAIN_PATHS + (CHAIN[::-1],)
ROUTE_KEYS = tuple(tuple(link.key for link in links) for links in ROUTES)
time_point = st.integers(min_value=0, max_value=60).map(float)
span = st.integers(min_value=1, max_value=12).map(float)
lineage = st.integers(min_value=0, max_value=3)
route = st.sampled_from(ROUTES)

keyed_ops = st.one_of(
    st.tuples(st.just("reserve"), lineage, st.sampled_from(KEYED), time_point, span),
    st.tuples(st.just("release"), lineage, st.sampled_from(KEYED), st.integers(0, 5)),
    st.tuples(st.just("truncate"), lineage, st.sampled_from(KEYED), time_point),
    st.tuples(
        st.just("fill"),
        lineage,
        st.lists(st.tuples(st.sampled_from(PES), time_point, span), max_size=2),
        st.lists(st.tuples(route, time_point, span), max_size=2),
    ),
    st.tuples(st.just("undo"), lineage),
    st.tuples(st.just("fork"), lineage),
    st.tuples(st.just("copy"), lineage),
    st.tuples(
        st.just("overlay"),
        lineage,
        st.lists(st.tuples(route, time_point, span), max_size=3),
        st.booleans(),
    ),
)


def _keyed(transfers):
    """``(links, start, length)`` transfers with each route as its link keys."""
    return [(tuple(link.key for link in links), start, length) for links, start, length in transfers]


class TestKeyedPathCacheMatchesLiteral:
    """The lockstep oracle of ``test_property_tables``, on the chain routes by ``Link.key``.

    ``fill``/``undo`` take ``CommPlacement``s holding ``Link`` objects and
    store them under their keys; reserve, release, truncate, overlay
    reservations and every probe address those keys directly.  So a
    filled transfer and a direct reservation meet on one table, across
    forked and copied lineages, and the version-keyed path cache must
    answer every probe as :class:`LiteralTables` does.
    """

    @given(
        st.lists(keyed_ops, min_size=1, max_size=14),
        st.lists(time_point, min_size=1, max_size=3),
        st.lists(st.tuples(route, time_point, span), max_size=2),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_every_keyed_probe_matches_literal(self, ops, readies, extras):
        lineages = [(ResourceTables(), LiteralTables())]
        filled = [[]]
        for op, index, *args in ops:
            index %= len(lineages)
            cached, literal = lineages[index]
            if op in ("fork", "copy"):
                if len(lineages) < 4:
                    lineages.append((getattr(cached, op)(), getattr(literal, op)()))
                    filled.append(list(filled[index]))
            else:
                if op == "fill":
                    args = list(_placements(*args))
                elif op == "undo":
                    if not filled[index]:
                        continue
                    args = filled[index][-1]
                # Warm the cached side's path cache before the mutation lands.
                cached.overlay().find_earliest_on_path(ROUTE_KEYS[-1], 0.0, 1.0)
                applied = _apply(cached, op, args)
                assert _apply(literal, op, args) == applied
                if applied and op == "fill":
                    filled[index].append(args)
                elif applied and op == "undo":
                    filled[index].pop()
            for cached, literal in lineages:
                self._assert_probes_agree(cached, literal, readies, _keyed(extras))

    @staticmethod
    def _assert_probes_agree(cached, literal, readies, extras):
        for resource in KEYED:
            assert cached.busy(resource) == literal.busy(resource)
        for tentative in ((), extras):
            oc, ol = cached.overlay(), literal.overlay()
            for keys, start, length in tentative:
                oc.reserve_on_path(keys, start, start + length)
                ol.reserve_on_path(keys, start, start + length)
            for ready in readies:
                for duration in (0.0, 1.0, 7.5):
                    for keys in ROUTE_KEYS:
                        assert oc.find_earliest_on_path(keys, ready, duration) == (
                            ol.find_earliest_on_path(keys, ready, duration)
                        )
                    for pe in PES:
                        assert oc.find_earliest(pe, ready, duration) == ol.find_earliest(pe, ready, duration)


# -- the loader boundary ------------------------------------------------------------


def _first_hop(document):
    return next(comm for comm in document["comms"] if comm["links"])["links"][0]


class TestLoadedLinks:
    @given(index=st.integers(min_value=0, max_value=9), n_tasks=st.integers(min_value=8, max_value=24))
    @settings(max_examples=12, deadline=None)
    def test_loaded_links_keep_their_keys_and_tables(self, index, n_tasks):
        acg = presets.mesh_3x3()
        schedule = eas_schedule(generate_category(1, index, n_tasks=n_tasks), acg)
        loaded = schedule_from_json(schedule_to_json(schedule), schedule.ctg, acg)
        for key, comm in loaded.comm_placements.items():
            route = acg.route(comm.src_pe, comm.dst_pe)
            assert [link.key for link in comm.links] == list(route.link_keys)
            assert comm.links == schedule.comm_placements[key].links
        original, reloaded = ResourceTables(), ResourceTables()
        original.fill(schedule.task_placements.values(), schedule.comm_placements.values())
        reloaded.fill(loaded.task_placements.values(), loaded.comm_placements.values())
        assert sorted(original.resources()) == sorted(reloaded.resources())
        for resource in original.resources():
            assert reloaded.busy(resource) == original.busy(resource)

    @pytest.mark.parametrize("bad", [-1, LIMIT, 1.5, 1.0, "0", None])
    def test_bad_link_coordinates_are_a_serialization_error(self, bad):
        acg = presets.mesh_2x2()
        ctg = av_decoder_ctg("foreman")
        document = schedule_to_dict(eas_schedule(ctg, acg))
        _first_hop(document)[1][0] = bad
        with pytest.raises(SerializationError):
            schedule_from_json(json.dumps(document), ctg, acg)

    def test_cli_exits_on_one_line(self, tmp_path, capsys):
        saved = tmp_path / "schedule.json"
        assert main(["schedule", "--system", "decoder", "--save", str(saved)]) == 0
        document = json.loads(saved.read_text())
        _first_hop(document)[0][1] = -3
        saved.write_text(json.dumps(document))
        capsys.readouterr()
        assert main(["explain", "--system", "decoder", "--load", str(saved)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-noc: error:") and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


# -- the hot-path guard ---------------------------------------------------------------


@pytest.fixture
def link_calls(monkeypatch):
    """Counts calls to ``Link.__hash__`` and ``Link.__eq__`` while a test runs."""
    calls = collections.Counter()
    for name in ("__hash__", "__eq__"):

        def counted(*args, _name=name, _original=getattr(Link, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(Link, name, counted)
    return calls


class TestHotPathHashesNoLink:
    """Scheduling, repair and recovery key their tables by int only."""

    def test_the_counter_sees_link_hashing(self, link_calls):
        {Link((0, 0), (0, 1)): 1}.get(Link((0, 0), (0, 1)))
        assert link_calls["__hash__"] == 2 and link_calls["__eq__"] == 1

    def test_eas_schedule(self, link_calls):
        acg = presets.mesh_4x4()
        ctg = generate_category(1, 0, n_tasks=60)
        link_calls.clear()
        schedule = eas_schedule(ctg, acg)
        assert not link_calls
        assert any(len(comm.links) > 1 for comm in schedule.comm_placements.values())

    def test_search_and_repair(self, link_calls):
        acg = presets.mesh_5x5()
        ctg = generate_category(2, 5, n_tasks=30).with_scaled_deadlines(0.65)
        base = eas_base_schedule(ctg, acg)
        assert miss_metric(base)[0]
        link_calls.clear()
        _repaired, report = search_and_repair(base)
        assert not link_calls
        assert report.rounds

    @pytest.mark.parametrize("kind", ["pe", "link"])
    def test_inject_and_recover(self, link_calls, kind):
        acg = presets.mesh_4x4()
        committed = eas_schedule(generate_category(1, 0, n_tasks=60), acg)
        time = committed.makespan() / 2
        if kind == "pe":
            plan = FaultPlan("pe-death", pe_faults=(PEFault(5, time),))
        else:
            plan = FaultPlan("link-cut", link_faults=(LinkFault((1, 1), (1, 2), time),))
        link_calls.clear()
        result = inject_and_recover(committed, plan, validate=False)
        assert not link_calls
        assert result.recovery.is_complete
