"""The JSON boundary of the CTG, schedule and fault-plan documents.

Readers parse, check the envelope and type every field here, under the
one policy DESIGN.md §4 states ("Document boundary"); any violation is
a :class:`~repro.errors.SerializationError`.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.arch.topology import LINK_COORD_BITS
from repro.errors import ReproError, SerializationError

_REQUIRED = object()
_TYPES = {int: "an integer", bool: "a JSON boolean", str: "a string", list: "an array"}


def parse(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # json.JSONDecodeError is a ValueError
        raise SerializationError(f"invalid JSON: {exc}") from exc


@contextmanager
def document(data: Any, fmt: str, versions: Sequence[int]) -> Iterator["Fields"]:
    """The root of a ``fmt`` document; a domain error while building from it is re-raised."""
    root = Fields(data, f"{fmt} document")
    if data.get("format") != fmt:
        raise SerializationError(f"not a {fmt} document: format={data.get('format')!r}")
    version = data.get("version")
    if type(version) is not int or version not in versions:
        raise SerializationError(f"unsupported {fmt} version {version!r}; this build reads {list(versions)}")
    try:
        yield root
    except SerializationError:
        raise
    except ReproError as exc:
        raise SerializationError(f"malformed {fmt} document: {exc}") from exc


def as_number(value: Any, label: str, nonfinite: bool = False, expect: str = "a number") -> float:
    """A JSON int or float; also ``"inf"``/``"-inf"``/``"nan"`` if ``nonfinite``."""
    try:
        if type(value) in (int, float) or (nonfinite and value in ("inf", "-inf", "nan")):
            return float(value)
    except OverflowError:
        pass
    raise SerializationError(f"{label} must be {expect}, got {value!r}")


def as_index(value: Any, label: str, limit: Optional[int] = None) -> int:
    """A non-negative JSON int, below ``limit`` if one is given."""
    if type(value) is not int or (value < 0 and limit is None):
        raise SerializationError(f"{label} must be a non-negative integer, got {value!r}")
    if limit is not None and not 0 <= value < limit:
        raise SerializationError(f"{label} {value} out of range 0..{limit - 1}")
    return value


def as_type(value: Any, label: str, kind: type) -> Any:
    if type(value) is not kind:
        raise SerializationError(f"{label} must be {_TYPES[kind]}, got {value!r}")
    return value


def as_pair(value: Any, label: str, check, *args) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise SerializationError(f"{label} must be a pair, got {value!r}")
    return check(value[0], label, *args), check(value[1], label, *args)


def as_coord(value: Any, label: str) -> tuple:
    """A ``[row, col]`` pair of indices :func:`repro.arch.topology.link_key` can pack."""
    return as_pair(value, label, as_index, 1 << LINK_COORD_BITS)


def _field(check, kind=None, *args):
    """A :class:`Fields` reader: a ``kind`` value passes as is, a missing or ``null`` one is ``default``."""

    def read(self: "Fields", key: str, default: Any = _REQUIRED, label: str = "", **options) -> Any:
        value = self.data.get(key)
        if type(value) is kind:
            return value
        if value is None:
            if default is _REQUIRED:
                raise SerializationError(f"{self.what}: {key!r} is missing or null")
            return default
        return check(value, f"{self.what}: {label or repr(key)}", *args, **options)

    return read


class Fields:
    """One JSON object of a document; ``what`` names it in error messages."""

    __slots__ = ("data", "what")

    def __init__(self, value: Any, what: str) -> None:
        if type(value) is not dict:
            raise SerializationError(f"{what} must be a JSON object, got {type(value).__name__}")
        self.data: Dict[str, Any] = value
        self.what = what

    number, index, coord = _field(as_number, float), _field(as_index), _field(as_coord)
    integer, flag, name, array = (_field(as_type, kind, kind) for kind in (int, bool, str, list))

    def entries(self, key: str, default: Any = _REQUIRED) -> list:
        return [Fields(v, f"{self.what}: {key}[{i}]") for i, v in enumerate(self.array(key, default))]

    def members(self, key: str) -> list:
        """``(name, Fields)`` pairs of the JSON object ``key`` of objects."""
        what = f"{self.what}: {key}"
        return [(k, Fields(v, f"{what}[{k!r}]")) for k, v in Fields(self.data.get(key), what).data.items()]


def scalar(value: Any) -> Any:
    """``value`` as a strict-JSON scalar: a non-finite float as ``"inf"``/``"-inf"``/``"nan"``,
    any other non-scalar as its ``str``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return str(value)


def scalar_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    return {key: scalar(value) for key, value in attrs.items()}
