"""Spans recorded by wrappers the benchmark installs on public names.

A wrapper replaces a name in the namespace of the module that *calls* it,
so each span marks one module boundary (cli -> solvers/store/waves/
constructions, store -> waves/constructions, constructions -> waves).
Spans are kept in memory as [name, start, end, parent, info] and written
out once, when the traced process ends.  The program itself is unchanged.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """Wrap fn; note(result, args) fills the span's info after it ends."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span[2] = perf()
                span[4] = "raised"
                raise
            finally:
                stack.pop()
            span[2] = perf()
            if note is not None:
                span[4] = note(out, args)
            return out

        return traced

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **extra}, fh)


def _found(out, _args) -> str:
    return "miss" if out is None else "hit"


def _nodes(out, _args) -> int:
    return out.nodes


def _store_hit(out, _args) -> str:
    return "hit" if out is not None and out.status == "exact" else "miss"


def _records(_out, args) -> int:
    store = args[0]
    try:
        with open(store.path, encoding="utf-8") as fh:
            return sum(1 for line in fh if line.strip() and not line.startswith("#"))
    except FileNotFoundError:
        return 0


def install_cli_boundaries(tracer: Tracer) -> None:
    """Wrap every name that cli, store and constructions import across modules."""
    import wavelab.cli as cli
    import wavelab.constructions as constructions
    import wavelab.store as store

    wrap = [
        (cli, "exact_g", "solvers.exact_g", _nodes),
        (cli, "exact_P", "solvers.exact_P", _nodes),
        (cli, "recursive_upper_bound_g", "solvers.recursive_upper_bound_g", None),
        (cli, "find_wave", "waves.find_wave", _found),
        (cli, "is_pi_wave", "waves.is_pi_wave", None),
        (cli, "is_weak_pi_wave", "waves.is_pi_wave", None),
        (cli, "extract_wave_main", "constructions.extract", None),
        (cli, "extract_wave_strong", "constructions.extract", None),
        (cli, "ezconst_coloring", "constructions.construct", None),
        (cli, "product_coloring", "constructions.construct", None),
        # cli's verify subcommand reaches the same search through this name
        (cli, "_find_mono_wave", "constructions.verify_coloring_wave_free", None),
        (store, "find_wave", "waves.find_wave", _found),
        (store, "verify_coloring_wave_free", "constructions.verify_coloring_wave_free", None),
        (constructions, "find_wave", "waves.find_wave", _found),
    ]
    for module, attr, name, note in wrap:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), note))
    cls = store.Store
    cls.__init__ = tracer.wrap("store.load", cls.__init__, _records)
    cls.get = tracer.wrap("store.get", cls.get, _store_hit)
    cls.put = tracer.wrap("store.put", cls.put, None)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


class Layers:
    """Aggregates spans from many traced processes by span name."""

    def __init__(self) -> None:
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.info: dict = defaultdict(list)
        self.spans = 0

    def add(self, spans: list[list]) -> None:
        self.spans += len(spans)
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            self.calls[name] += 1
            self.self_s[name] += own
            self.total_s[name] += span[2] - span[1]
            self.info[name].append(span[4])

    def ratio(self, name: str, value) -> float:
        infos = self.info.get(name, [])
        return sum(1 for i in infos if i == value) / len(infos) if infos else 0.0


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    tracer = Tracer()

    def f():
        return None

    g = tracer.wrap("calibrate", f, None)
    t0 = perf()
    for _ in range(calls):
        f()
    t1 = perf()
    for _ in range(calls):
        g()
    t2 = perf()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls
