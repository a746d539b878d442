"""Correctness gate: definition-literal oracles plus the seed reference table.

Nothing here calls wavelab.  Waves are checked by enumerating every
(k+1)-subset and comparing all gap pairs, exactly as the definition reads;
the lexicographically least wave is the first such subset in
``itertools.combinations`` order.  Values and witnesses are compared with
``reference.json``, recorded at the seed commit by ``make_reference.py``
and cross-checked there by brute force at small sizes.
"""

from __future__ import annotations

import itertools
import json
import math
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def fmt(seq) -> str:
    return ",".join(str(x) for x in seq)


def is_wave(points, pi, weak: bool) -> bool:
    """Definition-literal wave predicate over all gap pairs."""
    k = len(pi)
    if len(points) != k + 1 or any(a >= b for a, b in zip(points, points[1:])):
        return False
    d = [b - a for a, b in zip(points, points[1:])]
    for i in range(k):
        for j in range(k):
            if weak:
                if pi[i] > pi[j] and d[i] < d[j]:
                    return False
            elif (d[i] > d[j]) != (pi[i] > pi[j]):
                return False
    return True


def least_wave(elements, pi, weak: bool):
    for combo in itertools.combinations(sorted(elements), len(pi) + 1):
        if is_wave(combo, pi, weak):
            return combo
    return None


def first_mono_wave(colors, palette: int, pi, weak: bool):
    """(color, lex-least wave) for the least color whose class has a wave."""
    for c in range(1, palette + 1):
        w = least_wave([i for i, col in enumerate(colors, 1) if col == c], pi, weak)
        if w is not None:
            return c, w
    return None


def normalize(seq) -> tuple[int, ...]:
    ranks = sorted(seq)
    return tuple(ranks.index(v) + 1 for v in seq)


def upper_bound_g(pi, n: int) -> int:
    """The recursive bound, evaluated from its stated recursion."""
    log_n = math.log2(n)
    memo: dict = {}

    def u(vals):
        if len(vals) == 1:
            return 2.0
        if vals in memo:
            return memo[vals]
        b = 30 * log_n * u(normalize([v for v in vals if v != 1]))
        if abs(vals.index(1) - vals.index(2)) >= 2:
            b = min(b, 42 * log_n * u(normalize([v for v in vals if v not in (1, 2)])))
        memo[vals] = b
        return b

    return math.ceil(u(tuple(pi)))


def parse_ints(text: str):
    try:
        return tuple(int(p) for p in text.split(",")) if text not in ("", "-") else ()
    except ValueError:
        return None


class Gate:
    """Counts checked answers and collects every problem found."""

    def __init__(self, ref: dict):
        self.ref = ref
        self.attempted = 0
        self.failures: list[str] = []
        self._free: dict = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: {'; '.join(problems)}")

    def _wave_free(self, points, pi, weak: bool) -> bool:
        key = (points, pi, weak)
        if key not in self._free:
            self._free[key] = least_wave(points, pi, weak) is None
        return self._free[key]

    def g_problems(self, pi, mode, n, value, witness, status="exact") -> list[str]:
        """witness is the comma-joined text the program printed."""
        out = []
        if status != "exact":
            out.append(f"status {status}")
        pts = parse_ints(witness)
        if pts is None or any(a >= b for a, b in zip(pts, pts[1:])) or (pts and not 1 <= pts[0] <= pts[-1] <= n):
            return out + [f"witness {witness!r} is not an increasing subset of [{n}]"]
        if len(pts) != value:
            out.append(f"witness size {len(pts)} != value {value}")
        if not self._wave_free(pts, tuple(pi), mode == "weak"):
            out.append(f"witness {witness} holds a {mode} wave")
        table = self.ref["g"].get(f"{fmt(pi)}|{mode}")
        if table is not None and n <= len(table):
            want_v, want_w = table[n - 1]
            if value != want_v:
                out.append(f"value {value} != reference {want_v}")
            if witness != want_w:
                out.append(f"witness {witness} != reference {want_w}")
        if tuple(pi) == (2, 1) and mode == "strict":
            closed = 1 if n == 1 else (n - 1).bit_length() + 1
            if value != closed:
                out.append(f"value {value} != floor(log2(n-1))+2 = {closed}")
        return out

    def p_problems(self, pi, mode, r, value, coloring, status, budget=None) -> list[str]:
        out = []
        colors = parse_ints(coloring)
        if colors is None or any(not 1 <= c <= r for c in colors):
            return [f"coloring {coloring!r} is not over colors 1..{r}"]
        if len(colors) != value - 1:
            out.append(f"coloring domain {len(colors)} != value-1 = {value - 1}")
        if first_mono_wave(colors, r, tuple(pi), mode == "weak") is not None:
            out.append("extremal coloring holds a monochromatic wave")
        key = f"{fmt(pi)}|{mode}|{r}" + ("" if budget is None else f"|{budget}")
        ref = self.ref["p"].get(key)
        if ref is None:
            out.append(f"no reference for {key}")
        elif budget is None:
            if status != "exact":
                out.append(f"status {status}")
            if value != ref[0]:
                out.append(f"value {value} != reference {ref[0]}")
            if coloring != ref[2]:
                out.append("extremal coloring differs from reference")
        elif status not in ("exact", "lower-bound") or value < ref[0]:
            out.append(f"budgeted result {status} {value} below seed lower bound {ref[0]}")
        return out

    def ladder_problems(self, values: list[int]) -> list[str]:
        """g(n-1) <= g(n) <= g(n-1) + 1 along a ladder n = 1, 2, ..."""
        bad = [i + 2 for i, (a, b) in enumerate(zip(values, values[1:])) if not a <= b <= a + 1]
        return [f"ladder not unit-step monotone at n={bad}"] if bad else []

    def fault_injection(self, kind: str, *answer) -> list[str]:
        """The gate must flag a witness with one extra point and a wrong value.

        answer is (pi, mode, n, value, witness) for kind "g" and
        (pi, mode, r, value, coloring, status) for kind "p".
        """
        pi, mode, param, value, witness, *rest = answer
        pts = parse_ints(witness)
        if kind == "g":
            extra = next(x for x in range(1, param + 2) if x not in pts)
            corrupted = fmt(sorted(pts + (extra,)))
            check = self.g_problems
        else:
            corrupted = fmt(pts + (1,))
            check = self.p_problems
        out = []
        if not check(pi, mode, param, value, corrupted, *rest):
            out.append("corrupted witness not flagged")
        if not check(pi, mode, param, value + 1, witness, *rest):
            out.append("wrong value not flagged")
        return out
