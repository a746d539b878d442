"""Workload inputs, generated from the workload seed alone.

The same seed always yields the same inputs.  Nothing here imports wavelab:
the benchmark hands the program only the generated inputs.
"""

from __future__ import annotations

import itertools
import os
import random

S2 = [(2, 1), (1, 2)]
S3 = list(itertools.permutations((1, 2, 3)))
S4 = list(itertools.permutations((1, 2, 3, 4)))
MODES = ("strict", "weak")

# density: certified incrementally from n = 1 in one cold process.  Covers
# both doubling rules (2,1 and 1,2), the wave-table path for lengths 3 and
# 4, weak mode, and the switch at universe 64 to pinned completion.
DENSITY_LIST = [
    ((2, 1), "strict", 256),
    ((1, 2), "strict", 256),
    ((1, 2, 3), "strict", 48),
    ((1, 3, 2), "weak", 28),
    ((2, 4, 1, 3), "strict", 24),
]
# density: the frontier ladders, one length-3 and one length-4 pattern.
FRONTIER = [(1, 3, 2), (2, 4, 1, 3)]

# coloring: exact instances, then budgeted ones (pi, r, mode, node_budget).
COLORING_LIST = [
    ((2, 1), 4, "strict", None),
    ((1, 2), 4, "strict", None),
    ((2, 4, 1, 3), 2, "strict", None),
    ((1, 3, 2), 3, "strict", 10**6),
    ((1, 2, 3, 4, 5), 2, "strict", 10**4),
]
# coloring: the closed-loop stream draws cold exact_P requests from this
# menu; each is exact and takes a few milliseconds to a few tens.
COLORING_MENU = (
    [(pi, r, m) for pi in S2 for m in MODES for r in (2, 3)]
    + [(pi, 2, m) for pi in S3 for m in MODES]
)

# desk: the cold fill tabulates g to DESK_G_MAX and P to desk_p_max(pi) for
# every length-2 and length-3 pattern in both modes.
DESK_PATTERNS = S2 + S3
DESK_G_MAX = 24
# Misses solve strict length-2 g(pi, n) for n in (DESK_G_MAX, DESK_MISS_MAX],
# which the doubling rules make cheap, so a miss costs one solve and one put.
DESK_MISS_MAX = 64
# One round of the warm stream; each round is shuffled by the seed.
DESK_ROUND = (["g"] * 9 + ["p"] * 3 + ["gmiss", "search", "detect", "verify", "extract",
                                       "strong", "construct", "classify", "bound"])
CLASSIFY_EXTRA = [(7, 8, 9, 6, 2, 3, 4, 5, 1), (4, 3, 1, 2), (1, 4, 2, 3, 5), (5, 1, 4, 2, 3)]
BOUND_EXTRA = [(1, 4, 2, 3), (4, 3, 1, 2), (2, 5, 3, 1, 4), (7, 8, 9, 6, 2, 3, 4, 5, 1)]
# patterns with values 1 and 2 at non-adjacent positions (extract --strong)
STRONG_PATTERNS = [p for p in S3 + S4 if abs(p.index(1) - p.index(2)) >= 2]
EZCONST = [((2, 1), (1,)), ((3, 1, 2), (1, 2)), ((3, 2, 1), (2, 1))]  # pi, pi minus max


def desk_p_max(pi: tuple[int, ...]) -> int:
    return 3 if len(pi) == 2 else 2


def fmt(seq) -> str:
    return ",".join(str(x) for x in seq)


def density(seed: int) -> dict:
    rng = random.Random(seed)
    order = list(DENSITY_LIST)
    rng.shuffle(order)
    frontier = list(FRONTIER)
    rng.shuffle(frontier)
    return {"list": order, "frontier": frontier}


def coloring(seed: int) -> dict:
    rng = random.Random(seed)
    order = list(COLORING_LIST)
    rng.shuffle(order)
    return {"list": order, "stream_seed": rng.randrange(2**32)}


def coloring_stream(stream_seed: int):
    """Endless, seed-determined sequence of menu instances, in rounds that
    each hold the whole menu once, so every run sees the same mix."""
    rng = random.Random(stream_seed)
    while True:
        yield from rng.sample(COLORING_MENU, len(COLORING_MENU))


def desk_fill(workdir: str, cache: str) -> list[dict]:
    cmds = []
    for kind in ("g", "p"):
        for pi in DESK_PATTERNS:
            for mode in MODES:
                top = DESK_G_MAX if kind == "g" else desk_p_max(pi)
                csv = os.path.join(workdir, f"table-{kind}-{fmt(pi)}-{mode}.csv")
                argv = ["table", "--kind", kind, "--pi", fmt(pi), "--max", str(top),
                        "--csv", csv, "--cache", cache]
                if mode == "weak":
                    argv.append("--weak")
                cmds.append({"op": "table", "argv": argv, "kind": kind, "pi": pi,
                             "mode": mode, "max": top, "csv": csv})
    return cmds


def _dense_set(rng: random.Random, n: int, drop: float) -> list[int]:
    return [x for x in range(1, n + 1) if x == 1 or x == n or rng.random() >= drop]


def _wave_like(rng: random.Random, pi: tuple[int, ...]) -> list[int]:
    gaps = sorted(rng.sample(range(1, 12), len(pi)))
    pts = [rng.randint(1, 20)]
    for v in pi:
        pts.append(pts[-1] + gaps[v - 1])
    return pts


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def desk_files(workdir: str, ref_p: dict) -> dict:
    """Coloring files that construct and verify read: seed-independent."""
    files = {}

    def coloring_file(name: str, pi, r: int, mode: str, size: int | None = None) -> str:
        colors = ref_p[f"{fmt(pi)}|{mode}|{r}"][2].split(",")
        if size is not None:
            colors = colors[:size]
        return _write(os.path.join(workdir, name), f"palette: {r}\n{','.join(colors)}\n")

    for pi, reduced in EZCONST:
        for mode in MODES:
            files[("ez", pi, mode)] = (
                coloring_file(f"c0-{fmt(pi)}-{mode}.txt", pi, 2, mode),
                coloring_file(f"c0p-{fmt(pi)}-{mode}.txt", reduced, 2, mode),
            )
    for pi in S2:
        for m in (2, 3):
            colors = ref_p[f"{fmt(pi)}|weak|{m}"][2].split(",")
            files[("prod", pi, m)] = coloring_file(
                f"prod-{fmt(pi)}-{m}.txt", pi, m, "weak", size=len(colors) // 5 * 5)
            files[("prodl", pi, m)] = coloring_file(f"prodl-{fmt(pi)}-{m}.txt", pi, m, "weak")
    return files


def desk_stream(seed: int, workdir: str, cache: str, files: dict, count: int = 1000) -> list[dict]:
    """The warm stream: mostly cache hits, a few appending misses, and every
    other subcommand.  Random colorings for ``verify`` are written here."""
    rng = random.Random(seed)
    ops = []
    while len(ops) < count:
        ops += rng.sample(DESK_ROUND, len(DESK_ROUND))
    cmds = []
    for i, op in enumerate(ops):
        mode = rng.choice(MODES)
        weak = ["--weak"] if mode == "weak" else []
        cmd: dict = {"op": op, "mode": mode}
        if op == "g":
            pi = rng.choice(DESK_PATTERNS)
            n = rng.randint(1, DESK_G_MAX)
            cmd.update(pi=pi, n=n, argv=["g", "--pi", fmt(pi), "--n", str(n), "--cache", cache] + weak)
        elif op == "gmiss":
            pi = rng.choice(S2)
            n = rng.randint(DESK_G_MAX + 1, DESK_MISS_MAX)
            cmd.update(op="g", mode="strict", pi=pi, n=n,
                       argv=["g", "--pi", fmt(pi), "--n", str(n), "--cache", cache])
        elif op == "p":
            pi = rng.choice(DESK_PATTERNS)
            r = rng.randint(1, desk_p_max(pi))
            cmd.update(pi=pi, r=r, argv=["p", "--pi", fmt(pi), "--r", str(r), "--cache", cache] + weak)
        elif op == "search":
            pi = rng.choice(S3 + S4)
            s = [x for x in range(1, 41) if rng.random() < 0.4] or [1]
            cmd.update(pi=pi, set=s, argv=["search", "--pi", fmt(pi), "--set", fmt(s)] + weak)
        elif op == "detect":
            pi = rng.choice(S3 + S4)
            if rng.random() < 0.5:
                seq = _wave_like(rng, pi)
            else:
                seq = sorted(rng.sample(range(1, 40), len(pi) + 1))
            cmd.update(pi=pi, seq=seq, argv=["detect", "--pi", fmt(pi), "--seq", fmt(seq)] + weak)
        elif op == "verify":
            pi = rng.choice(S2 + S3)
            r = rng.randint(2, 3)
            colors = [rng.randint(1, r) for _ in range(rng.randint(10, 30))]
            path = _write(os.path.join(workdir, f"verify-{i}.txt"), f"palette: {r}\n{fmt(colors)}\n")
            cmd.update(pi=pi, r=r, colors=colors,
                       argv=["verify", "--coloring", path, "--pi", fmt(pi)] + weak)
        elif op in ("extract", "strong"):
            if op == "extract":
                pi = rng.choice(S2 + S3)
                s = _dense_set(rng, 160, 0.1)
                extra = []
            else:
                pi = rng.choice(STRONG_PATTERNS)
                s = _dense_set(rng, 400, 0.05)
                extra = ["--strong"]
            cmd.update(op="extract", mode="strict", pi=pi, set=s,
                       argv=["extract", "--pi", fmt(pi), "--set", fmt(s)] + extra)
        elif op == "construct":
            if rng.random() < 0.5:
                pi, reduced = rng.choice(EZCONST)
                c0, c0p = files[("ez", pi, mode)]
                cmd.update(variant="ezconst", pi=pi, c0=c0, c0p=c0p,
                           argv=["construct", "ezconst", "--pi", fmt(pi), "--c0", c0, "--c0p", c0p] + weak)
            else:
                pl, pr = rng.choice(S2), rng.choice(S2)
                m = rng.randint(2, 3)
                cl, cr = files[("prodl", pl, m)], files[("prod", pr, m)]
                # pi is the direct difference the product must avoid: pl above pr
                cmd.update(variant="product", mode="weak", m=m, cl=cl, cr=cr,
                           pi=tuple(v + len(pr) for v in pl) + pr,
                           argv=["construct", "product", "--pi-left", fmt(pl), "--pi-right", fmt(pr),
                                 "--m", str(m), "--cl", cl, "--cr", cr])
        elif op == "classify":
            pi = rng.choice(S3 + S4 + CLASSIFY_EXTRA)
            cmd.update(mode="strict", pi=pi, argv=["classify", fmt(pi)])
        else:  # bound
            pi = rng.choice(S3 + S4 + BOUND_EXTRA)
            n = rng.randint(2, 10**6)
            cmd.update(mode="strict", pi=pi, n=n, argv=["bound", "--pi", fmt(pi), "--n", str(n)])
        cmds.append(cmd)
    return cmds
