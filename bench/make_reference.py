"""Regenerate bench/reference.json from the library, with brute-force checks.

    PYTHONPATH=src python3 bench/make_reference.py

Every g value with n <= BRUTE_G_MAX is confirmed by enumerating all subsets
of [n], and every exact P value whose colorings number at most BRUTE_P_MAX
is confirmed by enumerating every coloring.  All witnesses and extremal
colorings are checked wave-free with the definition-literal predicate.
The table records what the seed commit computes; later commits are gated
against it, so regenerate it only when the benchmark itself changes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys

import gate
import inputs as I
from wavelab import Permutation, exact_P, exact_g
from wavelab.cli import main as cli_main

BRUTE_G_MAX = 12
BRUTE_P_MAX = 1 << 14

# Ladders recorded beyond what one run reaches at the seed commit, so a
# faster engine is still compared value by value for a while.
G_TABLES = {
    ((2, 1), "strict"): 256,
    ((1, 2), "strict"): 256,
    ((1, 2, 3), "strict"): 48,
    ((1, 3, 2), "weak"): 28,
    ((1, 3, 2), "strict"): 39,
    ((2, 4, 1, 3), "strict"): 34,
}
for _pi in I.DESK_PATTERNS:
    for _mode in I.MODES:
        top = I.DESK_MISS_MAX if len(_pi) == 2 and _mode == "strict" else I.DESK_G_MAX
        G_TABLES[(_pi, _mode)] = max(G_TABLES.get((_pi, _mode), 0), top)


def brute_g(pi, n, weak):
    """Largest wave-free subset of [n] by checking subsets, largest first."""
    for size in range(n, 0, -1):
        for combo in itertools.combinations(range(1, n + 1), size):
            if gate.least_wave(combo, pi, weak) is None:
                return size, gate.fmt(combo)
    return 0, ""


def brute_p(pi, r, weak, top):
    for m in range(1, top + 1):
        if not any(
            gate.first_mono_wave(colors, r, pi, weak) is None
            for colors in itertools.product(range(1, r + 1), repeat=m)
        ):
            return m
    return None


def p_entry(pi, r, mode, budget=None):
    res = exact_P(Permutation(pi), r, mode, **({} if budget is None else {"node_budget": budget}))
    colors = res.extremal.assignment
    assert gate.first_mono_wave(colors, r, pi, mode == "weak") is None, (pi, r, mode)
    if res.status == "exact" and r ** (res.value - 1) <= BRUTE_P_MAX:
        assert brute_p(pi, r, mode == "weak", res.value) == res.value, (pi, r, mode)
    return [res.value, res.status, gate.fmt(colors), res.nodes]


def main() -> None:
    ref: dict = {"g": {}, "p": {}, "classify": {}}
    for (pi, mode), top in sorted(G_TABLES.items()):
        rows = []
        for n in range(1, top + 1):
            res = exact_g(Permutation(pi), n, mode)
            w = str(res.witness)
            assert res.status == "exact" and len(res.witness) == res.value
            assert gate.least_wave(res.witness.elements, pi, mode == "weak") is None
            if n <= BRUTE_G_MAX:
                assert brute_g(pi, n, mode == "weak") == (res.value, w), (pi, mode, n)
            rows.append([res.value, w])
        ref["g"][f"{gate.fmt(pi)}|{mode}"] = rows
        print("g", pi, mode, top, rows[-1][0], flush=True)

    p_keys = {(pi, r, mode, budget) for pi, r, mode, budget in I.COLORING_LIST}
    p_keys |= {(pi, r, mode, None) for pi, r, mode in I.COLORING_MENU}
    p_keys |= {(pi, r, mode, None) for pi in I.DESK_PATTERNS for mode in I.MODES
               for r in range(1, I.desk_p_max(pi) + 1)}
    p_keys |= {(red, 2, mode, None) for _, red in I.EZCONST for mode in I.MODES}
    p_keys |= {(pi, m, "weak", None) for pi in I.S2 for m in (2, 3)}
    for pi, r, mode, budget in sorted(p_keys, key=lambda t: (len(t[0]), t[0], t[1], t[2], t[3] or 0)):
        key = f"{gate.fmt(pi)}|{mode}|{r}" + ("" if budget is None else f"|{budget}")
        ref["p"][key] = p_entry(pi, r, mode, budget)
        print("p", key, ref["p"][key][:2], flush=True)

    for pi in I.S3 + I.S4 + I.CLASSIFY_EXTRA:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli_main(["classify", gate.fmt(pi)]) == 0
        ref["classify"][gate.fmt(pi)] = buf.getvalue()

    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print("wrote", path, file=sys.stderr)


if __name__ == "__main__":
    main()
