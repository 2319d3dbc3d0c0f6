"""A registry of named counters and gauges.

Counters are monotonically increasing totals (``eas.evaluations``),
gauges hold a last-written value.  The registry supports :meth:`snapshot`
(a plain-dict view), :meth:`reset` (zero in place, keeping instrument
identity so cached references stay live), and :meth:`merge` so evalx can
aggregate metrics across benchmark runs.  Counter merging is associative
and commutative; gauge merging is last-writer-wins (the operand with
updates overrides).

Instruments are plain attribute-bumping objects — incrementing a
counter is one method call and one float add, cheap enough to leave on
in uninstrumented runs.
"""

from __future__ import annotations

from typing import Dict


class Counter:
    """A named, monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value:g})"


class Gauge:
    """A named last-written value (e.g. current round, queue depth)."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = value
        self.updates += 1

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value:g})"


class MetricsRegistry:
    """Named instruments, created lazily on first access."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}

    # -- access -------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name)
            self._counters[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name)
            self._gauges[name] = instrument
        return instrument

    # -- views --------------------------------------------------------------

    def counter_values(self) -> Dict[str, float]:
        """``{name: value}`` for every counter (cheap delta-friendly view)."""
        return {name: c.value for name, c in self._counters.items()}

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-dict view of every instrument's current state."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "gauges": {name: g.value for name, g in self._gauges.items() if g.updates},
        }

    # -- lifecycle ----------------------------------------------------------

    def reset(self) -> None:
        """Zero every instrument in place (cached references stay valid)."""
        for counter in self._counters.values():
            counter.value = 0.0
        for gauge in self._gauges.values():
            gauge.value = 0.0
            gauge.updates = 0

    def copy(self) -> "MetricsRegistry":
        clone = MetricsRegistry()
        clone.merge(self)
        return clone

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (in place); returns self.

        Counters add — associative and commutative, so merging per-run
        registries in any grouping gives the same aggregate.  A gauge is overwritten only when ``other``
        actually wrote it.
        """
        for name, src in other._counters.items():
            self.counter(name).inc(src.value)
        for name, src in other._gauges.items():
            if src.updates:
                dst = self.gauge(name)
                dst.value = src.value
                dst.updates += src.updates
        return self
