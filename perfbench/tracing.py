"""Spans, counters and memo-table bookkeeping, installed from outside the
package.

Nothing here edits ``p1qcurve``: spans and counters are wrappers set as
module and class attributes, and the memo tables are found by walking the
package's module namespaces.  Spans stay in memory until the pass ends.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from fractions import Fraction

PACKAGE = "p1qcurve"


def package_modules(package: str = PACKAGE) -> list:
    """The imported modules of ``package``, the package itself included."""
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == package or name.startswith(package + "."))
    ]


def _namespaces(package: str = PACKAGE):
    """Every module namespace of the package and every class defined in one."""
    for mod in package_modules(package):
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith(package):
                yield value


def _memo_behind(obj):
    """The functools cache behind ``obj``, following ``__wrapped__`` links."""
    for _ in range(8):
        if obj is None:
            return None
        obj = getattr(obj, "__func__", obj)
        if callable(getattr(obj, "cache_info", None)) and callable(
            getattr(obj, "cache_clear", None)
        ):
            return obj
        obj = getattr(obj, "__wrapped__", None)
    return None


def find_memos(package: str = PACKAGE) -> dict:
    """Every functools memo table reachable from the package's namespaces,
    keyed by ``module.qualname``.  The walk runs afresh on every call, so a
    cache added later is found without a list to update."""
    found: dict = {}
    for space in _namespaces(package):
        for value in list(vars(space).values()):
            memo = _memo_behind(value)
            if memo is not None:
                found.setdefault(f"{memo.__module__}.{memo.__qualname__}", memo)
    return found


class ColdStartError(RuntimeError):
    """A memo table still held entries when an operation had to start cold."""


class MemoTables:
    """Clears the package's memo tables and keeps their statistics.

    ``cache_clear`` resets a table's hit and miss counts, so they are added
    to running totals just before every clear.
    """

    def __init__(self, package: str = PACKAGE):
        self.package = package
        self.totals: dict[str, list[int]] = {}  # name -> [hits, misses]
        self.peak_entries: dict[str, int] = {}

    def _absorb(self, name: str, memo) -> None:
        info = memo.cache_info()
        total = self.totals.setdefault(name, [0, 0])
        total[0] += info.hits
        total[1] += info.misses
        self.peak_entries[name] = max(self.peak_entries.get(name, 0), info.currsize)

    def clear(self) -> None:
        for name, memo in find_memos(self.package).items():
            self._absorb(name, memo)
            memo.cache_clear()

    def assert_cold(self) -> None:
        warm = [
            f"{name} ({memo.cache_info().currsize} entries)"
            for name, memo in find_memos(self.package).items()
            if memo.cache_info().currsize
        ]
        if warm:
            raise ColdStartError("memo tables not empty: " + ", ".join(warm))

    def finish(self) -> dict:
        """Absorb the final state and return a snapshot of every table: its
        last ``cache_info()`` and the hit/miss totals over the whole pass."""
        snapshot = {}
        for name, memo in find_memos(self.package).items():
            info = memo.cache_info()
            self._absorb(name, memo)
            hits, misses = self.totals[name]
            snapshot[name] = {
                "cache_info": info._asdict(),
                "total_hits": hits,
                "total_misses": misses,
                "peak_entries": self.peak_entries[name],
            }
        return snapshot


def coeff_bits(obj, seen: set | None = None) -> int:
    """Largest bit length of a numerator or denominator of any Fraction
    held in ``obj`` (containers, dataclasses and slotted objects)."""
    if isinstance(obj, Fraction):
        return max(abs(obj.numerator).bit_length(), obj.denominator.bit_length())
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return 0
    if seen is None:
        seen = set()
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = list(obj.keys()) + list(obj.values())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        items = list(obj)
    elif dataclasses.is_dataclass(obj):
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        slots = getattr(type(obj), "__slots__", ())
        items = [getattr(obj, s) for s in slots if hasattr(obj, s)]
    return max((coeff_bits(x, seen) for x in items), default=0)


class Tracer:
    """Span and counter wrappers around package functions.

    A span records ``[name, args, start, end, parent, op]``; ``parent`` is
    the index of the enclosing span (-1 at top level) and ``op`` the
    benchmark operation that was running.  A counter only counts calls and
    the time of the outermost call, for hot kernel methods where a span per
    call would cost too much.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self.op: int | None = None
        self.max_bits = 0
        self._stack: list[int] = []
        self._observed: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _observe(self, result) -> None:
        if not isinstance(result, (Fraction, bool, int)) and result is not None:
            if id(result) in self._observed:
                return
            self._observed[id(result)] = result  # keeps the id from being reused
        self.max_bits = max(self.max_bits, coeff_bits(result))

    def span(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, args, clock(), None, stack[-1] if stack else -1, self.op]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            self._observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        stat = self.counters.setdefault(name, [0, 0.0])
        clock = self.clock
        active = [False]

        def counted(*args, **kwargs):
            stat[0] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += clock() - start
                active[0] = False

        counted.__wrapped__ = fn
        return counted

    def install(self, original, wrapper, package: str = PACKAGE) -> int:
        """Replace every reference to ``original`` in the package's module
        and class namespaces, so names one module imports from another are
        wrapped too.  Returns the number of references replaced."""
        replaced = 0
        for space in _namespaces(package):
            for attr, value in list(vars(space).items()):
                if value is original:
                    self._patches.append((space, attr, original))
                    setattr(space, attr, wrapper)
                    replaced += 1
        if not replaced:
            raise LookupError(f"{original!r} is not referenced in {package}")
        return replaced

    def uninstall(self) -> None:
        while self._patches:
            space, attr, original = self._patches.pop()
            setattr(space, attr, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own
