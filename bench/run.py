"""wavelab benchmark: one command per workload, every metric by name and unit.

    python3 bench/run.py --workload density|coloring|desk --seed N \
        --seconds S --trace 0|1

Run from a checkout: the program under test is ``src/wavelab``.  Human
readable lines come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run.
See bench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import gate
import inputs
from gate import fmt
from tracing import Layers, self_times, wrapper_cost_s

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
PY = sys.executable
SETUP_PROBES = 4  # cold interpreters timed at each of three points of a run
CHILD_TIMEOUT = 150

END_TO_END = {
    "setup_s": "s",
    "certify_s": "s",
    "budget_answers": "count",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
DENSITY_TOPS = {
    "p21_n256": ((2, 1), "strict"),
    "p12_n256": ((1, 2), "strict"),
    "p123_n48": ((1, 2, 3), "strict"),
    "p132w_n28": ((1, 3, 2), "weak"),
    "p2413_n24": ((2, 4, 1, 3), "strict"),
}
SUBCOMMANDS = ("classify", "detect", "search", "g", "p", "bound", "extract", "construct", "table", "verify")
PER_LAYER = {
    "solvers.exact_g.calls": "count",
    "solvers.exact_g.self_s": "s",
    "solvers.exact_g.nodes": "count",
    "solvers.exact_g.us_per_node": "us",
    **{f"solvers.exact_g.us_per_node.{k}": "us" for k in DENSITY_TOPS},
    "solvers.exact_g.frontier_132_n": "n",
    "solvers.exact_g.frontier_2413_n": "n",
    "solvers.exact_P.calls": "count",
    "solvers.exact_P.self_s": "s",
    "solvers.exact_P.nodes": "count",
    "solvers.exact_P.us_per_node": "us",
    "store.load.calls": "count",
    "store.load.self_s": "s",
    "store.load.total_s": "s",
    "store.load.records": "count",
    "store.load.us_per_record": "us",
    "store.get.calls": "count",
    "store.get.hit_ratio": "ratio",
    "store.put.calls": "count",
    "store.put.self_s": "s",
    "waves.find_wave.calls": "count",
    "waves.find_wave.self_s": "s",
    "waves.find_wave.hit_ratio": "ratio",
    "constructions.verify_coloring_wave_free.calls": "count",
    "constructions.verify_coloring_wave_free.self_s": "s",
    "constructions.extract.calls": "count",
    "constructions.extract.self_s": "s",
    "constructions.extract.completed_ratio": "ratio",
    "constructions.construct.calls": "count",
    "constructions.construct.self_s": "s",
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    **{f"cli.main.self_s.{c}": "s" for c in SUBCOMMANDS},
    **{f"cli.exit.{c}": "count" for c in range(4)},
    "trace.spans": "count",
    "trace.wrapper_cost_s": "s",
    "trace.certify_s": "s",
    "trace.budget_answers": "count",
    "trace.op_p90_ms": "ms",
}


class BenchError(RuntimeError):
    """The benchmark could not measure: no result is printed."""


class Run:
    def __init__(self, args, workdir: str):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.workdir = workdir
        # Byte-compiled modules are kept between runs of one checkout, as an
        # installed package keeps them, so commands do not recompile wavelab.
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=workdir,
                        PYTHONPYCACHEPREFIX=os.path.join(ROOT, ".bench_cache", "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.gate = gate.Gate(gate.load_reference())
        self.layers = Layers()
        self.warm_layers = Layers()  # the desk warm stream alone
        self.warm = False
        self.notes: list[str] = []  # human-readable lines
        self.figures: dict = {}  # per-layer metrics that do not come from spans
        self.import_s: list[float] = []  # per traced CLI command
        self.cli_main_self: dict = {c: 0.0 for c in SUBCOMMANDS}
        self.exit_codes: list[int] = []
        self._spans = 0
        self.setup_times: list[float] = []

    def spans_path(self) -> str | None:
        if not self.trace:
            return None
        self._spans += 1
        return os.path.join(self.workdir, f"spans-{self._spans}.json")

    def absorb(self, path: str | None) -> dict:
        if path is None:
            return {}
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        self.layers.add(data["spans"])
        if self.warm:
            self.warm_layers.add(data["spans"])
        return data

    def probe_setup(self) -> None:
        """Time cold interpreters that import wavelab and generate the
        workload's inputs.  Probed before and after the workload, and between
        its phases where they run in separate processes, so the median spans
        the run; the first probe starts with an untimed warm-up that
        byte-compiles wavelab."""
        setup_dir = os.path.join(self.workdir, "setup")
        os.makedirs(setup_dir, exist_ok=True)
        if not self.setup_times:
            self.child("setup", self.workload, str(self.seed), setup_dir)
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            self.child("setup", self.workload, str(self.seed), setup_dir)
            self.setup_times.append(time.perf_counter() - t0)
        shutil.rmtree(setup_dir)

    def child(self, *argv: str) -> None:
        cmd = [PY, os.path.join(BENCH, "child.py"), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=ROOT, timeout=CHILD_TIMEOUT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[:1])} child exited {proc.returncode}: {proc.stderr[-2000:]}")


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_frontier(run: Run, pi: tuple[int, ...]) -> list[list]:
    """Certified steps of the g(pi, n) ladder within the wall budget."""
    out_path = os.path.join(run.workdir, f"frontier-{fmt(pi)}.txt")
    with open(out_path, "w", encoding="utf-8") as out:
        t0 = time.monotonic()
        proc = subprocess.Popen([PY, os.path.join(BENCH, "child.py"), "frontier", fmt(pi)],
                                env=run.env, cwd=ROOT, stdout=out, stderr=subprocess.PIPE)
        try:
            proc.wait(timeout=run.seconds)
            raise BenchError(f"frontier child for {fmt(pi)} ended early: {proc.stderr.read()[-2000:]!r}")
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        finally:
            proc.stderr.close()
    steps = []
    with open(out_path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if len(parts) != 7 or float(parts[0]) - t0 > run.seconds:
                break
            _, n, value, witness, status, nodes, dt = parts
            steps.append([int(n), int(value), "" if witness == "-" else witness, status, int(nodes), float(dt)])
    return steps


def density(run: Run) -> dict:
    spec = inputs.density(run.seed)
    out = os.path.join(run.workdir, "glist.json")
    spans = run.spans_path()
    run.child("glist", str(run.seed), out, *([spans] if spans else []))
    run.absorb(spans)
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    rows = data["rows"]
    g = run.gate
    ladders: dict = {}
    for pi, mode, n, value, witness, status, nodes, dt in rows:
        g.record(f"g({fmt(pi)}, {n}, {mode})", g.g_problems(pi, mode, n, value, witness, status))
        ladders.setdefault((tuple(pi), mode), []).append(value)
    for (pi, mode), values in ladders.items():
        g.record(f"ladder {fmt(pi)} {mode}", g.ladder_problems(values))
    probe = next(r for r in rows if tuple(r[0]) == (1, 2, 3) and r[2] == 20)
    g.record("fault injection", g.fault_injection("g", *probe[:5]))

    run.probe_setup()
    frontier = {}
    for pi in spec["frontier"]:
        steps = run_frontier(run, pi)
        for n, value, witness, status, nodes, dt in steps:
            g.record(f"frontier g({fmt(pi)}, {n})", g.g_problems(pi, "strict", n, value, witness, status))
        g.record(f"frontier ladder {fmt(pi)}", g.ladder_problems([s[1] for s in steps]))
        frontier[pi] = len(steps)
    f132, f2413 = frontier[(1, 3, 2)], frontier[(2, 4, 1, 3)]
    run.notes += [f"frontier_132_n = {f132} n (largest n of g(1,3,2, n) certified within {run.seconds} s)",
                  f"frontier_2413_n = {f2413} n (largest n of g(2,4,1,3, n) certified within {run.seconds} s)"]
    run.figures["solvers.exact_g.frontier_132_n"] = f132
    run.figures["solvers.exact_g.frontier_2413_n"] = f2413
    for name, key in DENSITY_TOPS.items():
        top = [r for r in rows if (tuple(r[0]), r[1]) == key][-1]
        run.figures[f"solvers.exact_g.us_per_node.{name}"] = top[7] / max(top[6], 1) * 1e6
    return {"certify_s": data["certify_s"], "budget_answers": f132 + f2413,
            "latencies": [r[7] for r in rows], "latency_of": "one exact_g step of the fixed list"}


def coloring(run: Run) -> dict:
    out = os.path.join(run.workdir, "plist.json")
    spans = run.spans_path()
    run.child("plist", str(run.seed), str(run.seconds), out, *([spans] if spans else []))
    run.absorb(spans)
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    g = run.gate
    for pi, r, mode, budget, value, coloring_text, status, nodes, dt in data["fixed"] + data["stream"]:
        label = f"P({fmt(pi)}, {r}, {mode}{'' if budget is None else f', budget {budget}'})"
        g.record(label, g.p_problems(pi, mode, r, value, coloring_text, status, budget))
        if budget is not None and nodes > budget:
            run.notes.append(f"observation: {label} reports {nodes} nodes, above its node_budget")
    pi, r, mode, _, value, text, status = data["stream"][0][:7]
    g.record("fault injection", g.fault_injection("p", pi, mode, r, value, text, status))
    run.notes.append("observation: wave-table construction in exact_P is not metered by node_budget")
    return {"certify_s": data["certify_s"], "budget_answers": len(data["stream"]),
            "latencies": [s[8] for s in data["stream"]], "latency_of": "one cold exact_P request of the stream"}


def run_cli(run: Run, argv: list[str]) -> tuple[int, str, str, float]:
    spans = run.spans_path()
    if spans:
        cmd = [PY, os.path.join(BENCH, "launcher.py"), spans, *argv]
    else:
        cmd = [PY, "-m", "wavelab.cli", *argv]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, env=run.env, cwd=run.workdir, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT)
    dt = time.perf_counter() - t0
    if spans and os.path.exists(spans):
        data = run.absorb(spans)
        run.import_s.append(data["import_s"])
        main_self = sum(own for span, own in zip(data["spans"], self_times(data["spans"]))
                        if span[0] == "cli.main")
        run.cli_main_self[data["command"]] += main_self
        os.remove(spans)
    run.exit_codes.append(proc.returncode)
    return proc.returncode, proc.stdout, proc.stderr, dt


def read_coloring(path: str) -> tuple[int, tuple[int, ...]]:
    with open(path, encoding="utf-8") as fh:
        head, body = fh.read().split("\n", 1)
    return int(head.split(":")[1]), gate.parse_ints(body.strip())


def desk_problems(g: gate.Gate, cmd: dict, code: int, out: str, err: str) -> list[str]:
    if code != 0:
        return [f"exit {code}: {err.strip()[-300:]}"]
    op, pi, weak = cmd["op"], tuple(cmd["pi"]), cmd["mode"] == "weak"
    lines = out.splitlines()
    if op == "table":
        with open(cmd["csv"], encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        if [int(r[1]) for r in rows] != list(range(1, cmd["max"] + 1)):
            return ["table rows do not cover 1..max"]
        check = g.g_problems if cmd["kind"] == "g" else g.p_problems
        return [p for r in rows for p in check(pi, cmd["mode"], int(r[1]), int(r[3]), r[5], r[4])]
    if op in ("g", "p"):
        if len(lines) != 2 or not lines[0].isdigit():
            return [f"unparseable output {out!r}"]
        if op == "g":
            return g.g_problems(pi, cmd["mode"], cmd["n"], int(lines[0]), lines[1])
        return g.p_problems(pi, cmd["mode"], cmd["r"], int(lines[0]), lines[1], "exact")
    if op == "search":
        w = gate.least_wave(cmd["set"], pi, weak)
        want = "none" if w is None else fmt(w)
    elif op == "detect":
        want = "wave" if gate.is_wave(tuple(cmd["seq"]), pi, weak) else "no wave"
    elif op == "verify":
        found = gate.first_mono_wave(cmd["colors"], cmd["r"], pi, weak)
        want = "wave-free" if found is None else f"monochromatic wave: color {found[0]}, points {fmt(found[1])}"
    elif op == "extract":
        pts = gate.parse_ints(out.strip())
        if pts is None or not set(pts) <= set(cmd["set"]) or not gate.is_wave(pts, pi, False):
            return [f"extracted {out.strip()!r} is not a wave inside the set"]
        return []
    elif op == "construct":
        if cmd["variant"] == "ezconst":
            r, c0 = read_coloring(cmd["c0"])
            _, c0p = read_coloring(cmd["c0p"])
            palette, colors = 2 * r, c0 + tuple(c + r for c in c0) + c0p
        else:
            m, cl = read_coloring(cmd["cl"])
            _, cr = read_coloring(cmd["cr"])
            fifth = len(cr) // 5
            colors = []
            for x in range(len(cl) * len(cr)):
                a, rem = divmod(x, len(cr))
                b, c = divmod(rem, fifth)
                colors.append(((cl[a] - 1) * m + (cr[c] - 1)) * 5 + b + 1)
            palette, colors = 5 * m * m, tuple(colors)
        want = f"palette: {palette}\n{fmt(colors)}"
        if gate.first_mono_wave(colors, palette, pi, weak) is not None:
            return ["constructed coloring holds a monochromatic wave"]
    elif op == "classify":
        want = g.ref["classify"][fmt(pi)].rstrip("\n")
    else:
        want = str(gate.upper_bound_g(pi, cmd["n"]))
    return [] if out.rstrip("\n") == want else [f"output {out.strip()!r} != expected {want!r}"]


def desk(run: Run) -> dict:
    workdir = run.workdir
    cache = os.path.join(workdir, "cache.txt")
    fill = inputs.desk_fill(workdir, cache)
    files = inputs.desk_files(workdir, run.gate.ref["p"])
    stream = inputs.desk_stream(run.seed, workdir, cache, files)
    results = []
    t0 = time.perf_counter()
    for cmd in fill:
        results.append((cmd, *run_cli(run, cmd["argv"])))
    certify_s = time.perf_counter() - t0
    run.probe_setup()
    latencies = []
    run.warm = True
    t0 = time.perf_counter()
    for cmd in stream:
        if time.perf_counter() - t0 >= run.seconds:
            break
        code, out, err, dt = run_cli(run, cmd["argv"])
        results.append((cmd, code, out, err, dt))
        latencies.append(dt)
    else:
        raise BenchError("desk stream exhausted before the time budget")
    g = run.gate
    for cmd, code, out, err, dt in results:
        g.record(" ".join(cmd["argv"][:3]), desk_problems(g, cmd, code, out, err))
    hit = next(((c, o) for c, code, o, _, _ in results if c["op"] == "g" and code == 0), None)
    if hit is None:
        g.record("fault injection", ["no g answer to corrupt"])
    else:
        value, witness = hit[1].splitlines()
        g.record("fault injection", g.fault_injection("g", hit[0]["pi"], hit[0]["mode"], hit[0]["n"],
                                                      int(value), witness))
    run.notes.append(f"fill: {len(fill)} table commands; warm stream: {len(latencies)} commands")
    return {"certify_s": certify_s, "budget_answers": len(latencies), "latencies": latencies,
            "latency_of": "one warm `python -m wavelab.cli` command"}


WORKLOADS = {"density": density, "coloring": coloring, "desk": desk}


def per_layer(run: Run, e2e: dict) -> dict:
    L = run.layers
    m = {name: 0.0 for name in PER_LAYER}
    for solver in ("exact_g", "exact_P"):
        name = f"solvers.{solver}"
        nodes = sum(i for i in L.info.get(name, []) if isinstance(i, int))
        m[f"{name}.calls"] = L.calls[name]
        m[f"{name}.self_s"] = L.self_s[name]
        m[f"{name}.nodes"] = nodes
        m[f"{name}.us_per_node"] = L.self_s[name] / nodes * 1e6 if nodes else 0.0
    records = sum(i for i in L.info.get("store.load", []) if isinstance(i, int))
    m.update({
        "store.load.calls": L.calls["store.load"],
        "store.load.self_s": L.self_s["store.load"],
        "store.load.total_s": L.total_s["store.load"],
        "store.load.records": records,
        "store.load.us_per_record": L.total_s["store.load"] / records * 1e6 if records else 0.0,
        "store.get.calls": L.calls["store.get"],
        "store.get.hit_ratio": run.warm_layers.ratio("store.get", "hit"),
        "store.put.calls": L.calls["store.put"],
        "store.put.self_s": L.self_s["store.put"],
        "waves.find_wave.calls": L.calls["waves.find_wave"],
        "waves.find_wave.self_s": L.self_s["waves.find_wave"],
        "waves.find_wave.hit_ratio": L.ratio("waves.find_wave", "hit"),
        "cli.main.calls": L.calls["cli.main"],
        "cli.main.self_s": L.self_s["cli.main"],
    })
    for part in ("verify_coloring_wave_free", "extract", "construct"):
        name = f"constructions.{part}"
        m[f"{name}.calls"] = L.calls[name]
        m[f"{name}.self_s"] = L.self_s[name]
    calls = L.calls["constructions.extract"]
    m["constructions.extract.completed_ratio"] = (
        1.0 - L.ratio("constructions.extract", "raised") if calls else 0.0)
    m.update(run.figures)
    if run.import_s:
        m["cli.import_s"] = statistics.median(run.import_s)
    for command, own in run.cli_main_self.items():
        m[f"cli.main.self_s.{command}"] = own
    for code in range(4):
        m[f"cli.exit.{code}"] = run.exit_codes.count(code)
    m["trace.spans"] = L.spans
    m["trace.wrapper_cost_s"] = L.spans * wrapper_cost_s()
    for name in ("certify_s", "budget_answers", "op_p90_ms"):
        m[f"trace.{name}"] = e2e[name]
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "wavelab", "cli.py")):
        print(f"error: no wavelab sources under {SRC}; run from a wavelab checkout", file=sys.stderr)
        return 2
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    run = Run(args, workdir)
    try:
        run.probe_setup()
        res = WORKLOADS[args.workload](run)
        run.probe_setup()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass
    lat = res["latencies"]
    e2e = {
        "setup_s": statistics.median(run.setup_times),
        "certify_s": res["certify_s"],
        "budget_answers": res["budget_answers"],
        "op_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }
    g = run.gate
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for line in run.notes:
        print(line)
    print(f"op_p50_ms = {statistics.median(lat) * 1e3:.6g} ms  (n={len(lat)}, not a gated metric)")
    for name, unit in END_TO_END.items():
        extra = f"  (n={len(lat)}, {res['latency_of']})" if name.startswith("op_") else ""
        print(f"{name} = {e2e[name]:.6g} {unit}{extra}")
    print(f"error_rate = {len(g.failures)}/{g.attempted} = {len(g.failures) / max(g.attempted, 1):.6g}")
    for failure in g.failures[:20]:
        print(f"FAILED {failure}")
    if args.trace:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]} for k, v in per_layer(run, e2e).items()}
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not g.failures, "attempted": g.attempted,
                      "failed": len(g.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
