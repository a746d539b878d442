"""Cold worker processes that call into wavelab for the benchmark.

    python3 bench/child.py setup    WORKLOAD SEED WORKDIR
    python3 bench/child.py glist    SEED OUT [SPANS]
    python3 bench/child.py frontier PATTERN
    python3 bench/child.py plist    SEED SECONDS OUT [SPANS]

Each run is a fresh interpreter, so solver memos start cold.  With SPANS
given, calls into wavelab are traced and the spans written there at exit.
"""

from __future__ import annotations

import json
import sys
import time

import inputs
from tracing import Tracer

perf = time.perf_counter


def setup(workload: str, seed: int, workdir: str) -> None:
    import os

    import wavelab  # noqa: F401  (the import is part of what is timed)

    if workload == "density":
        inputs.density(seed)
    elif workload == "coloring":
        inputs.coloring(seed)
    else:
        import gate

        cache = os.path.join(workdir, "cache.txt")
        inputs.desk_fill(workdir, cache)
        files = inputs.desk_files(workdir, gate.load_reference()["p"])
        inputs.desk_stream(seed, workdir, cache, files)


def _solver(name: str, spans: str | None, tracer: Tracer):
    import wavelab.solvers as solvers

    fn = getattr(solvers, name)
    if spans is None:
        return fn
    return tracer.wrap(f"solvers.{name}", fn, lambda out, _a: out.nodes)


def glist(seed: int, out: str, spans: str | None) -> None:
    from wavelab import Permutation

    tracer = Tracer()
    exact_g = _solver("exact_g", spans, tracer)
    rows = []
    start = perf()
    for pi, mode, top in inputs.density(seed)["list"]:
        p = Permutation(pi)
        for n in range(1, top + 1):
            t0 = perf()
            res = exact_g(p, n, mode)
            dt = perf() - t0
            rows.append([pi, mode, n, res.value, str(res.witness), res.status, res.nodes, dt])
    certify_s = perf() - start
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"certify_s": certify_s, "rows": rows}, fh)
    if spans:
        tracer.dump(spans)


def frontier(pattern: str) -> None:
    """Certify g(pi, n) for n = 1, 2, ... until the parent stops this process.

    One line per certified n: the monotonic clock when it was certified,
    then n, value, witness, status, nodes and the step's seconds.
    """
    from wavelab import Permutation, exact_g

    p = Permutation.parse(pattern)
    n = 0
    while True:
        n += 1
        t0 = perf()
        res = exact_g(p, n)
        dt = perf() - t0
        print(time.monotonic(), n, res.value, str(res.witness) or "-", res.status, res.nodes, dt, flush=True)


def plist(seed: int, seconds: float, out: str, spans: str | None) -> None:
    """The fixed list, traced when SPANS is given, then the untraced stream."""
    from wavelab import Permutation
    from wavelab.solvers import exact_P as untraced_exact_P

    tracer = Tracer()
    exact_P = _solver("exact_P", spans, tracer)
    spec = inputs.coloring(seed)
    fixed = []
    start = perf()
    for pi, r, mode, budget in spec["list"]:
        kwargs = {} if budget is None else {"node_budget": budget}
        t0 = perf()
        res = exact_P(Permutation(pi), r, mode, **kwargs)
        fixed.append([pi, r, mode, budget, res.value, str(res.extremal), res.status, res.nodes, perf() - t0])
    certify_s = perf() - start
    stream = []
    start = perf()
    for pi, r, mode in inputs.coloring_stream(spec["stream_seed"]):
        if perf() - start >= seconds:
            break
        t0 = perf()
        res = untraced_exact_P(Permutation(pi), r, mode)
        stream.append([pi, r, mode, None, res.value, str(res.extremal), res.status, res.nodes, perf() - t0])
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"certify_s": certify_s, "fixed": fixed, "stream": stream}, fh)
    if spans:
        tracer.dump(spans)


def main(argv: list[str]) -> None:
    task, args = argv[0], argv[1:]
    if task == "setup":
        setup(args[0], int(args[1]), args[2])
    elif task == "glist":
        glist(int(args[0]), args[1], args[2] if len(args) > 2 else None)
    elif task == "frontier":
        frontier(args[0])
    elif task == "plist":
        plist(int(args[0]), float(args[1]), args[2], args[3] if len(args) > 3 else None)
    else:
        raise SystemExit(f"unknown task {task!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
