"""Exact computation of the two extremal quantities.

``exact_g(pi, n)`` is the size of the largest wave-free subset of [n]:
branch-and-bound over subsets, elements added in increasing order.  An
element is admitted only if it completes no wave whose final point it is
(any new wave must end at the newest, largest element), and a branch is cut
when the remaining universe provably cannot beat the incumbent.  Values are
solved for n = 1, 2, ... in order, and a translate of a wave-free set is
wave-free, so every certified g(m) with m < n bounds any m consecutive
points: the picks after e (in (e, n]) by g(n-e), and e with the picks after
it (in [e, n]) by g(n-e+1) once e >= 2.  The closed bound is the tighter one
on the plateaus of g, and at the root it ends the loop over least points.
Any strictly improving set at step n must contain n itself (everything
smaller was exhausted at step n-1), which prunes subtrees that have already
lost n.  From that floor on the search also looks ahead to n: including e
drops every later candidate x that would close a wave rest + x + n whose
first k-1 points, the top one e, are all chosen, since no improving set can
hold both x and n (length-2 patterns keep their doubling counts instead).
The reported witness is the lexicographically least optimum: the
search visits subsets in lexicographic order and no cut ever removes a
subset that could still strictly beat the incumbent.

Which candidates would complete a wave is answered by one kernel,
``_prefix_completions``: for a point e it lists every k-point prefix
w_1 < ... < w_{k-1} < e whose gaps relate as pi(1..k-1) do, together with
the bitmask of the final points x > e that complete it to a wave.  Those
are exactly the points whose last gap x - e lies between the largest
prefix gap with a smaller pi-value and the smallest with a larger one (open
interval in strict mode, closed in weak mode), so each prefix costs one
mask whatever the universe.  Grouped by the top point w_{k-1}, the list
lets including e scan only the groups of chosen points, ORing the masks of
the prefixes inside the chosen set into the branch's forbidden mask.
For the two patterns of length 2 the completion rule also has a closed
shape (every admissible next element doubles the current span, upward for
2,1 and mirrored for 1,2), which yields an exact bound on how many elements
can still be added; with it the certification tree for n up to a few
hundred collapses to a few thousand nodes.

``exact_P(pi, r)`` is the least M such that every r-coloring of [M] holds a
monochromatic wave: M is raised until backtracking (point 1 gets color 1,
color c+1 may first appear only after color c) finds no wave-free coloring.
A point may take a color unless one of the waves ending at it, listed once
per point, has all its other points in that color class.  The value is
certified by exhaustion, never extrapolated; the extremal coloring of
[M-1] is the first one in canonical backtracking order.

Both searches honor a node budget and report a structured lower-bound
result instead of a wrong answer when it runs out.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass

from .perm import Permutation, remove_values
from .waves import IntSet, Mode, _gap_interval, _gap_pair_ok, wave_predicate

__all__ = [
    "Coloring",
    "DensityResult",
    "ColoringResult",
    "exact_g",
    "exact_P",
    "recursive_upper_bound_g",
    "DEFAULT_NODE_BUDGET",
    "SINGLE_REMOVAL_FACTOR",
    "PAIR_REMOVAL_FACTOR",
]

DEFAULT_NODE_BUDGET = 10**8

# Per-removal log factors of the two recursive upper-bound rules.
SINGLE_REMOVAL_FACTOR = 30
PAIR_REMOVAL_FACTOR = 42


@dataclass(frozen=True)
class Coloring:
    """Total assignment of [M] to colors 1..palette; index i+1 -> assignment[i]."""

    assignment: tuple[int, ...]
    palette: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))
        if self.palette < 1:
            raise ValueError("palette must be >= 1")
        for i, c in enumerate(self.assignment, start=1):
            if not 1 <= c <= self.palette:
                raise ValueError(f"point {i} has color {c} outside 1..{self.palette}")

    @property
    def domain_size(self) -> int:
        return len(self.assignment)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.assignment):
            raise IndexError(f"point {i} outside domain [1..{len(self.assignment)}]")
        return self.assignment[i - 1]

    def color_class(self, c: int) -> tuple[int, ...]:
        return tuple(i for i, col in enumerate(self.assignment, start=1) if col == c)

    def restricted(self, m: int) -> "Coloring":
        """The same coloring on the prefix domain [m]."""
        if not 0 <= m <= len(self.assignment):
            raise ValueError(f"cannot restrict domain {len(self.assignment)} to [{m}]")
        return Coloring(self.assignment[:m], self.palette)

    @classmethod
    def constant(cls, m: int, color: int = 1, palette: int = 1) -> "Coloring":
        return cls((color,) * m, palette)

    @classmethod
    def parse(cls, text: str, palette: int | None = None) -> "Coloring":
        """Comma-separated colors, optionally preceded by a 'palette: r' line."""
        lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty coloring text")
        if lines[0].lower().startswith("palette:"):
            declared = int(lines[0].split(":", 1)[1])
            palette = declared if palette is None else palette
            lines = lines[1:]
        if len(lines) != 1:
            raise ValueError("coloring text must be a single line of colors")
        try:
            colors = tuple(int(p) for p in lines[0].split(","))
        except ValueError:
            raise ValueError(f"cannot parse coloring from {lines[0]!r}") from None
        return cls(colors, palette if palette is not None else max(colors, default=1))

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.assignment)


@dataclass(frozen=True)
class DensityResult:
    pattern: Permutation
    n: int
    mode: Mode
    value: int
    witness: IntSet
    status: str  # "exact" | "lower-bound"
    nodes: int


@dataclass(frozen=True)
class ColoringResult:
    pattern: Permutation
    r: int
    mode: Mode
    value: int
    extremal: Coloring
    status: str  # "exact" | "lower-bound"
    nodes: int


class _OutOfBudget(Exception):
    def __init__(self, value: int, points: tuple[int, ...]):
        self.value = value
        self.points = points
        super().__init__("node budget exhausted")


class _Budget:
    __slots__ = ("left", "spent")

    def __init__(self, limit: int):
        self.left = limit
        self.spent = 0

    def charge(self) -> bool:
        """Spend one node; False, spending nothing, once the budget is gone."""
        if self.left <= 0:
            return False
        self.spent += 1
        self.left -= 1
        return True


def _ext_doubling_up(m1: int, z: int, n: int) -> int:
    """Exact count of elements addable above z for the 2,1 pattern.

    A set is free of descending-gap triples iff each element sits at least
    its distance-from-the-minimum above its predecessor, so from state
    (min m1, last z) the cheapest continuation doubles the span each step.
    """
    count = 0
    last = z
    while True:
        nxt = 2 * last - m1 if last > m1 else last + 1
        if nxt > n:
            return count
        count += 1
        last = nxt


def _ext_doubling_down(z: int, cap: int) -> int:
    """Exact count of elements addable in (z, cap] for the 1,2 pattern.

    Mirror image of the 2,1 rule: gaps must shrink toward the top, so a
    chain anchored at z fits at most bit_length(cap - z) further elements.
    """
    span = cap - z
    return span.bit_length() if span >= 1 else 0


def _prefix_completions(
    vals: tuple[int, ...], e: int, strict: bool
) -> list[tuple[int, int]]:
    """Every order-compatible prefix ending at e, as (rest, completion) masks.

    A prefix is w_1 < ... < w_{k-1} < e whose gaps relate pairwise as
    vals[:k-1] do; ``rest`` has the bits of the w's.  ``completion`` has the
    bit of every x > e such that prefix + (x,) is a wave: its last gap lies
    in ``_gap_interval`` of the prefix gaps, strictly (strict mode) or
    weakly (weak mode) between ``lo``, the largest prefix gap whose value is
    below vals[-1], and ``hi``, the smallest whose value is above it.  With
    no ``hi`` the mask is negative, i.e. it runs on forever, so it never
    depends on the universe.  Prefixes no point completes are left out.
    For 2,1 at e = 4, (3, 4) has no completion, (2, 4) completes at 5 and
    (1, 4) at 5 or 6:

    >>> [(bin(r), bin(c)) for r, c in _prefix_completions((2, 1), 4, True)]
    [('0b100', '0b100000'), ('0b10', '0b1100000')]
    """
    k = len(vals)
    gaps = [0] * (k - 1)
    out: list[tuple[int, int]] = []

    def down(i: int, upper: int, rest: int) -> None:
        if i < 0:
            first, last = _gap_interval(vals, gaps, strict)
            if last is None:
                out.append((rest, -(1 << e + first)))
            elif last >= first:
                out.append((rest, (1 << e + last + 1) - (1 << e + first)))
            return
        # gap i runs from w_{i+1} up to upper; w_{i+1} >= i + 1 leaves room below
        for w in range(upper - 1, i, -1):
            d = upper - w
            if all(
                _gap_pair_ok(vals[i], vals[j], d, gaps[j], strict)
                for j in range(i + 1, k - 1)
            ):
                gaps[i] = d
                down(i - 1, w, rest | 1 << w)

    down(k - 2, e, 0)
    return out


class _GEngine:
    """Incremental exact-g solver for one (pattern, mode) pair."""

    def __init__(self, pi: Permutation, mode: Mode):
        self.pi = pi
        self.mode: Mode = mode
        self.strict = mode == "strict"
        self.g: list[int] = [0]
        self.witnesses: list[tuple[int, ...]] = [()]
        # tables[e]: _prefix_completions of e grouped by the prefix's top point,
        # built when the search reaches e
        self.tables: dict[int, dict[int, list[tuple[int, int]]]] = {}
        self.desc2 = self.strict and pi.values == (2, 1)
        self.asc2 = self.strict and pi.values == (1, 2)
        self.lock = threading.Lock()

    def ensure(self, n: int, budget: _Budget) -> None:
        with self.lock:
            while len(self.g) <= n:
                self._solve_next(budget)

    def _table(self, e: int) -> dict[int, list[tuple[int, int]]]:
        """``tables[e]``, built on first use."""
        table = self.tables.get(e)
        if table is None:
            # the empty prefix (k = 1) has no top point; e stands in, always chosen
            table = self.tables[e] = {}
            for rest, completion in _prefix_completions(self.pi.values, e, self.strict):
                top = (rest or 1 << e).bit_length() - 1
                table.setdefault(top, []).append((rest, completion))
        return table

    def _ends(self, e: int, n: int) -> list[tuple[int, int]]:
        """Prefixes with top point e that some x in (e, n) turns into a wave ending at n.

        Each entry is ``(rest, xs)``: rest holds the first k-1 points of a wave
        rest + x + n, and xs has the bit of every such x.
        """
        xs_of: dict[int, int] = {}
        for x in range(e + 1, n):
            for rest, completion in self._table(x).get(e, ()):
                if completion >> n & 1:
                    xs_of[rest] = xs_of.get(rest, 0) | 1 << x
        return list(xs_of.items())

    def _solve_next(self, budget: _Budget) -> None:
        n = len(self.g)
        g = self.g
        tables = self.tables
        incumbent = g[n - 1] - 1
        anchored_floor = g[n - 1]
        best: tuple[int, ...] = ()
        celems: list[int] = []
        cmask = 0
        # the length-2 patterns keep their doubling counts and build no tables up to n
        lookahead = not (self.desc2 or self.asc2)
        # ends[e]: _ends(e, n), built on e's first visit at or above the floor
        ends: list[list[tuple[int, int]] | None] = [None] * (n + 1)

        def fail() -> None:
            known = max(g[n - 1], incumbent)
            pts = best if incumbent >= g[n - 1] and best else self.witnesses[n - 1]
            raise _OutOfBudget(known, pts)

        def rec(cands: list[int], vcap: int) -> None:
            nonlocal incumbent, best, cmask
            csize = len(celems)
            ncands = len(cands)
            for i, e in enumerate(cands):
                newvcap = n
                # e and every later pick lie in [e, n], a shift of [n-e+1]
                if e >= 2 and csize + g[n - e + 1] <= incumbent:
                    break
                if self.desc2:
                    m1 = celems[0] if celems else e
                    if csize + 1 + _ext_doubling_up(m1, e, n) <= incumbent:
                        if csize:
                            break
                        continue
                elif self.asc2:
                    newvcap = min(vcap, 2 * e - celems[-1]) if celems else n
                    if csize + 1 + _ext_doubling_down(e, min(newvcap, n)) <= incumbent:
                        continue
                else:
                    if csize + 1 + min(g[n - e], ncands - 1 - i) <= incumbent:
                        break
                if not budget.charge():
                    fail()
                celems.append(e)
                cmask |= 1 << e
                if csize + 1 > incumbent:
                    incumbent = csize + 1
                    best = tuple(celems)
                table = tables.get(e)
                if table is None:
                    table = self._table(e)
                dead = 0
                for t in celems:
                    for rest, completion in table.get(t, ()):
                        if rest & cmask == rest:
                            dead |= completion
                if lookahead and incumbent >= anchored_floor:
                    # an improving set holds n, so no x may close a wave rest + x + n
                    pairs = ends[e]
                    if pairs is None:
                        pairs = ends[e] = self._ends(e, n)
                    for rest, xs in pairs:
                        if rest & cmask == rest:
                            dead |= xs
                newcands = [x for x in cands[i + 1 :] if not dead >> x & 1]
                if newcands and not (
                    incumbent >= anchored_floor and newcands[-1] != n
                ):
                    rec(newcands, newvcap)
                celems.pop()
                cmask &= ~(1 << e)

        rec(list(range(1, n + 1)), n)
        g.append(incumbent)
        self.witnesses.append(best)


_ENGINES: dict[tuple[tuple[int, ...], str], _GEngine] = {}
_ENGINES_LOCK = threading.Lock()


def _engine_for(pi: Permutation, mode: Mode) -> _GEngine:
    key = (pi.values, mode)
    with _ENGINES_LOCK:
        eng = _ENGINES.get(key)
        if eng is None:
            eng = _GEngine(pi, mode)
            _ENGINES[key] = eng
        return eng


def _reset_caches() -> None:
    """Drop all memoized solver state (intended for tests)."""
    with _ENGINES_LOCK:
        _ENGINES.clear()


def exact_g(
    pi: Permutation,
    n: int,
    mode: Mode = "strict",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> DensityResult:
    """Largest wave-free subset of [n], with a verified extremal witness.

    Exact unless the node budget runs out, in which case the result carries
    status ``"lower-bound"`` and the best wave-free set found so far.
    Results for one pattern are cached process-wide, so a budget applies to
    the new work done by this call.
    """
    if n < 1:
        raise ValueError("universe size must be >= 1")
    wave_predicate(mode)  # validates the mode string
    engine = _engine_for(pi, mode)
    budget = _Budget(node_budget)
    try:
        engine.ensure(n, budget)
    except _OutOfBudget as ex:
        return DensityResult(
            pattern=pi,
            n=n,
            mode=mode,
            value=ex.value,
            witness=IntSet(ex.points, n),
            status="lower-bound",
            nodes=budget.spent,
        )
    return DensityResult(
        pattern=pi,
        n=n,
        mode=mode,
        value=engine.g[n],
        witness=IntSet(engine.witnesses[n], n),
        status="exact",
        nodes=budget.spent,
    )


def _wave_table_for_coloring(
    pi: Permutation, mode: Mode, m: int, by_max: list[list[int]]
) -> None:
    """Extend by_max with the rest-masks of waves ending at point m."""
    k = len(pi)
    pred = wave_predicate(mode)
    new: list[int] = []
    if k == 1:
        new = [1 << c for c in range(1, m)]
    else:
        for combo in itertools.combinations(range(1, m), k):
            if pred(combo + (m,), pi):
                rest = 0
                for p in combo:
                    rest |= 1 << p
                new.append(rest)
    by_max.append(new)


def exact_P(
    pi: Permutation,
    r: int,
    mode: Mode = "strict",
    *,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ColoringResult:
    """Least M such that every r-coloring of [M] has a monochromatic wave.

    Iterates M upward; at each M a backtracking search with canonical color
    introduction (point 1 is color 1, color c+1 may first appear only after
    color c) looks for a wave-free coloring.  The first M admitting none is
    the answer, and the last coloring found is the extremal certificate.
    """
    if r < 1:
        raise ValueError("palette size must be >= 1")
    wave_predicate(mode)  # validates the mode string
    budget = _Budget(node_budget)
    by_max: list[list[int]] = [[]]
    last_good: tuple[int, ...] = ()
    M = 0
    while True:
        M += 1
        _wave_table_for_coloring(pi, mode, M, by_max)
        classmask = [0] * (r + 1)
        sol = [0] * (M + 1)
        exhausted = True

        def assign(p: int, introduced: int) -> bool:
            nonlocal exhausted
            if p > M:
                return True
            for c in range(1, min(introduced + 1, r) + 1):
                if not budget.charge():
                    exhausted = False
                    return False
                cm = classmask[c]
                blocked = False
                for rest in by_max[p]:
                    if rest & cm == rest:
                        blocked = True
                        break
                if not blocked:
                    sol[p] = c
                    classmask[c] |= 1 << p
                    if assign(p + 1, max(introduced, c)):
                        return True
                    classmask[c] &= ~(1 << p)
            return False

        if assign(1, 0):
            last_good = tuple(sol[1 : M + 1])
            continue
        # assign's closure refers to itself; break that cycle so by_max goes now
        del assign
        if exhausted:
            return ColoringResult(
                pattern=pi,
                r=r,
                mode=mode,
                value=M,
                extremal=Coloring(last_good, r),
                status="exact",
                nodes=budget.spent,
            )
        return ColoringResult(
            pattern=pi,
            r=r,
            mode=mode,
            value=len(last_good) + 1,
            extremal=Coloring(last_good, r),
            status="lower-bound",
            nodes=budget.spent,
        )


def recursive_upper_bound_g(pi: Permutation, n: int) -> int:
    """Evaluable recursive upper bound on the largest wave-free set size.

    U(pi, n) = min over applicable rules of
      30 * log2(n) * U(drop value 1)            (always), and
      42 * log2(n) * U(drop values 1 and 2)     (when 1 and 2 sit in
                                                 non-adjacent positions),
    with base U = 2 for single-value patterns, rounded up at the end.
    """
    if n < 2:
        raise ValueError("recursive upper bound needs n >= 2")
    log_n = math.log2(n)
    memo: dict[tuple[int, ...], float] = {}

    def u(vals: tuple[int, ...]) -> float:
        if len(vals) == 1:
            return 2.0
        got = memo.get(vals)
        if got is not None:
            return got
        p = Permutation(vals)
        bound = SINGLE_REMOVAL_FACTOR * log_n * u(remove_values(p, {1}).values)
        if abs(p.position(1) - p.position(2)) >= 2:
            bound = min(
                bound,
                PAIR_REMOVAL_FACTOR * log_n * u(remove_values(p, {1, 2}).values),
            )
        memo[vals] = bound
        return bound

    return math.ceil(u(pi.values))
