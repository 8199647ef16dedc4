"""Per-layer spans recorded from outside the library.

The tracer rebinds each public function named in ``LAYER_FUNCTIONS`` in
every ``stickknots`` module namespace that holds it, so calls made through
names pulled in by ``from .x import y`` are caught too.  Each call records a
span (name, start, end, parent) in memory; ``restore`` puts every original
back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable, Optional

ResultHook = Callable[[Counter, object], None]


def _count_none(tallies: Counter, result: object) -> None:
    tallies["heights.solve_feasibility.none"] += result is None


def _count_found(tallies: Counter, result: object) -> None:
    tallies["heights.feasible_found"] += len(result)


def _count_diagram(tallies: Counter, result: object) -> None:
    tallies["geometry.crossings"] += result.n_crossings
    tallies["geometry.degenerate"] += result.is_degenerate


def _count_classes(tallies: Counter, result: object) -> None:
    tallies["constructions.classes"] += len(result)


#: Traced functions, as "module.attribute[.method]".  A class name alone
#: stands for its construction (``__init__``).  The hook, if any, tallies a
#: property of the returned value.
LAYER_FUNCTIONS: dict[str, Optional[ResultHook]] = {
    "geometry.diagram_from_ordering": _count_diagram,
    "geometry.detect_crossings": None,
    "heights.constraints_from_assignment": None,
    "heights.solve_feasibility": _count_none,
    "heights.feasible_assignments": _count_found,
    "codes.BracketTable": None,
    "codes.BracketTable.classify": None,
    "codes.classify": None,
    "codes.kauffman_bracket": None,
    "constructions.canonical_ordering_classes": _count_classes,
    "constructions.search_ngon": None,
    "constructions.verify_selection": None,
    "triple.triple_report": None,
    "triple.enumerate_closures": None,
    "triple.classify_closure": None,
    "render.render_svg": None,
    "cli.main": None,
}

PACKAGE = "stickknots"


class Tracer:
    """In-memory span recorder that patches the library's namespaces."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.tallies: Counter = Counter()
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: set[int] = set()

    def _wrap(self, name: str, fn: Callable,
              hook: Optional[ResultHook]) -> Callable:
        spans, stack, tallies = self.spans, self._stack, self.tallies
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1]])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(tallies, result)
            return result

        self._wrappers.add(id(wrapper))
        return wrapper

    def _namespaces(self) -> list[object]:
        return [mod for key, mod in sorted(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def install(self) -> None:
        """Rebind every traced function wherever the package holds it."""
        namespaces = self._namespaces()
        for name, hook in LAYER_FUNCTIONS.items():
            module_name, attr, *method = name.split(".")
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            target = getattr(owner, attr)
            if isinstance(target, type):
                # A class is traced through its constructor or a method;
                # the class object itself stays in place.
                member = method[0] if method else "__init__"
                original = vars(target)[member]
                self._patch(target, member, self._wrap(name, original, hook))
                continue
            wrapper = self._wrap(name, target, hook)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is target:
                        self._patch(ns, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        ok = all(vars(owner)[key] is original
                 for owner, key, original in self._patches)
        for ns in self._namespaces():
            for value in vars(ns).values():
                members = vars(value).values() if isinstance(value, type) \
                    else (value,)
                if any(id(m) in self._wrappers for m in members):
                    ok = False
        self._patches.clear()
        return ok

    def root(self, name: str) -> "_RootSpan":
        """Context manager for the span that encloses one workload pass."""
        return _RootSpan(self, name)


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.index = -1

    def __enter__(self) -> "_RootSpan":
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), 0.0, t._stack[-1]])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t._stack.pop()
        t.spans[self.index][2] = time.perf_counter()


def pass_profile(spans: list[list], root: int) -> dict[str, dict[str, float]]:
    """Calls, inclusive seconds and self seconds per function for one pass.

    ``root`` is the index of the pass's root span; its descendants are the
    spans recorded after it up to the next span whose parent chain does not
    reach it.  Inclusive time counts only the outermost call of a name, so
    recursion is not counted twice.
    """
    # span index -> names of the traced calls enclosing it, itself included
    ancestors: dict[int, tuple[str, ...]] = {root: ()}
    child_time: Counter = Counter()
    profile: dict[str, dict[str, float]] = {}
    for idx in range(root + 1, len(spans)):
        name, start, end, parent = spans[idx]
        if parent not in ancestors:
            break
        ancestors[idx] = ancestors[parent] + (name,)
        dur = end - start
        child_time[parent] += dur
        entry = profile.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        if name not in ancestors[parent]:
            entry["s"] += dur
    for idx in ancestors:
        if idx != root:
            name, start, end, _ = spans[idx]
            profile[name]["self_s"] += (end - start) - child_time[idx]
    return profile


def coverage(spans: list[list], root: int) -> float:
    """Share of a pass's wall time inside layer spans below the entry call.

    The entry call is found by descending from the pass root while a span
    has exactly one child (``search_ngon`` on census7, ``verify_selection``
    on sweep); when the pass itself makes many library calls, the root is
    the entry.  The result is the time of the entry's children over the
    pass's wall time.
    """
    children: dict[int, list[int]] = {root: []}
    for idx in range(root + 1, len(spans)):
        parent = spans[idx][3]
        if parent not in children:
            break
        children[parent].append(idx)
        children[idx] = []
    entry = root
    while len(children[entry]) == 1:
        entry = children[entry][0]
    wall = spans[root][2] - spans[root][1]
    inside = sum(spans[i][2] - spans[i][1] for i in children[entry])
    return inside / wall if wall > 0 else 0.0
