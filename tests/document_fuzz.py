"""Generated edits of a saved JSON document, for fuzzing its reader.

:func:`variants` draws a copy of a document with one to three edits:
a dropped key, a value swapped for one of another JSON type, a
truncated list, a list entry replaced by a non-object, an out-of-range
index, an unknown version, or a non-object root.  A reader under test
must load each variant with typed fields or raise ``SerializationError``.
"""

import copy

from hypothesis import strategies as st

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
non_objects = json_values.filter(lambda v: not isinstance(v, dict))


def nodes(value, path=()):
    """Every ``(path, value)`` of a JSON tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for key, child in value.items():
            yield from nodes(child, path + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from nodes(child, path + (index,))


def at(document, path):
    for step in path:
        document = document[step]
    return document


def edits(document, versions, index_keys=(), limit=None):
    """Strategy for one edit ``(path, action, value)`` of ``document``.

    ``versions`` are the readable ones; an ``index`` edit sets a key in
    ``index_keys`` to a negative value or to one at or above ``limit``.
    """
    dict_paths = [p for p, v in nodes(document) if isinstance(v, dict) and v]
    list_paths = [p for p, v in nodes(document) if isinstance(v, list) and v]
    index_paths = [p for p, _v in nodes(document) if p[-1:] and p[-1] in index_keys]
    kinds = ["drop", "swap", "truncate", "entry", "version", "root"] + (["index"] if index_paths else [])

    @st.composite
    def edit(draw):
        kind = draw(st.sampled_from(kinds))
        if kind in ("drop", "swap"):
            parent = draw(st.sampled_from(dict_paths))
            key = draw(st.sampled_from(sorted(at(document, parent))))
            if kind == "drop":
                return parent + (key,), "drop", None
            old = at(document, parent + (key,))
            return parent + (key,), "set", draw(json_values.filter(lambda v: type(v) is not type(old)))
        if kind in ("truncate", "entry"):
            path = draw(st.sampled_from(list_paths))
            index = draw(st.integers(0, len(at(document, path)) - 1))
            if kind == "truncate":
                return path, "truncate", index
            return path + (index,), "set", draw(non_objects)
        if kind == "index":
            outside = st.integers(max_value=-1)
            if limit is not None:
                outside |= st.integers(min_value=limit)
            return draw(st.sampled_from(index_paths)), "set", draw(outside)
        if kind == "version":
            return ("version",), "set", draw(st.integers().filter(lambda v: v not in versions) | json_values)
        return (), "set", draw(non_objects)

    return edit()


def apply(document, path, action, value):
    """The document after one edit; a path an earlier edit removed is skipped."""
    if not path:
        return value
    try:
        parent = at(document, path[:-1])
        if action == "truncate":
            del at(document, path)[value:]
        elif action == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    except (IndexError, KeyError, TypeError):
        pass
    return document


def variants(document, versions, index_keys=(), limit=None):
    """Strategy for ``document`` after one to three :func:`edits`."""
    steps = st.lists(edits(document, versions, index_keys, limit), min_size=1, max_size=3)
    return steps.map(lambda steps: edited(document, *steps))


def edited(document, *steps):
    """``document`` after the given ``(path, action, value)`` edits."""
    variant = copy.deepcopy(document)
    for step in steps:
        variant = apply(variant, *step)
    return variant
