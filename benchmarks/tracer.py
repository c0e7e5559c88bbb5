"""Span tracing installed from outside the program.

Wrappers replace a function at every binding site: each phonocool module
(and the package namespace) that holds the same function object gets the
wrapper, so a call through `cli.simulate_ensemble` or `spectra.drift_matrix`
is traced just like one through the defining module.  Spans carry their
thread; a span opened on a worker thread is parented to the span open on the
main thread, because the benchmark is a single caller and only the program's
own pools start other threads.  A span's self time is its duration minus
the union of its children's intervals.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

LAYERS = ("cli", "spectra", "langevin", "dynamics", "coupling", "core")

# span name for wrapped functions whose metric name differs from
# "<layer>.<function>"
ALIASES = {
    "cli.main": "cli.run",
    "spectra.phonon_spectrum": "spectra.spectrum",
    "spectra.antistokes_spectrum": "spectra.spectrum",
    "coupling._check_longitudinal": "coupling.longitudinal_check",
    "langevin._dump_trajectory": "langevin.dump",
}
PRIVATE = ("cli.main", "coupling._check_longitudinal", "langevin._dump_trajectory")


def layer_functions(package) -> list[tuple[str, object]]:
    """("<layer>.<name>", function) for the public functions defined in each
    layer module, plus the private boundaries listed in PRIVATE."""
    found = []
    for layer in LAYERS:
        mod = getattr(package, layer)
        for attr, obj in vars(mod).items():
            if (callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__
                    and (not attr.startswith("_") or f"{layer}.{attr}" in PRIVATE)):
                found.append((f"{layer}.{attr}", obj))
    return found


def rebind(package, orig, new) -> list:
    """Replace `orig` by `new` in the package namespace and in every layer
    module that binds it; returns (module, attribute, orig) for undoing."""
    patches = []
    for mod in [package] + [getattr(package, m) for m in LAYERS]:
        for attr, obj in list(vars(mod).items()):
            if obj is orig:
                patches.append((mod, attr, orig))
                setattr(mod, attr, new)
    return patches


def unbind(patches: list) -> None:
    for obj, attr, orig in reversed(patches):
        setattr(obj, attr, orig)


@dataclass
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    children: list = field(default_factory=list)

    def self_time(self) -> float:
        covered, reach = 0.0, self.start
        for c in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(c.start, reach), min(c.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return (self.end - self.start) - covered


class Tracer:
    """Install with `install(package)`, then `begin()`/`end()` around
    each traced pass; `end()` returns the pass's spans."""

    def __init__(self):
        self._stacks: dict[int, list] = {}
        self._spans: list[Span] = []
        self._patches: list = []
        self._main = threading.main_thread().ident

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ident = threading.get_ident()
            stack = tracer._stacks.setdefault(ident, [])
            main = tracer._stacks.get(tracer._main) or [None]
            span = Span(name, ident, stack[-1] if stack else main[-1])
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer._spans.append(span)
            return result
        return wrapper

    def install(self, package) -> list[str]:
        """Wrap the public functions of each layer module, plus the private
        boundaries in PRIVATE, at every binding site.  Returns span names."""
        names = set()
        for key, orig in layer_functions(package):
            name = ALIASES.get(key, key)
            names.add(name)
            self._patches += rebind(package, orig, self._wrap(name, orig))
        cls = package.dynamics.Trajectory
        self._patches.append((cls, "save_csv", cls.save_csv))
        cls.save_csv = self._wrap("dynamics.save_csv", cls.save_csv)
        names.add("dynamics.save_csv")
        return sorted(names)

    def uninstall(self) -> None:
        unbind(self._patches)
        self._patches.clear()

    def begin(self) -> None:
        self._spans = []
        self._stacks.clear()

    def end(self) -> list[Span]:
        spans = self._spans
        for s in spans:
            if s.parent is not None:
                s.parent.children.append(s)
        return spans


def summarize(spans: list[Span]) -> dict:
    """Per-name and per-layer self time and call counts."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        layer = s.name.split(".", 1)[0]
        own = s.self_time()
        out[f"{layer}.self_s"] += own
        out[f"{layer}.calls"] += 1
        out[f"{s.name}.self_s"] += own
        out[f"{s.name}.calls"] += 1
    return dict(out)
