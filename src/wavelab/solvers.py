"""Exact computation of the two extremal quantities.

``exact_g(pi, n)`` is the size of the largest wave-free subset of [n]:
branch-and-bound over subsets, elements added in increasing order.  An
element is admitted only if it completes no wave whose final point it is
(any new wave must end at the newest, largest element), and a branch is cut
when the remaining universe provably cannot beat the incumbent.  Values are
solved for n = 1, 2, ... in order, and a translate of a wave-free set is
wave-free, so every certified g(m) with m < n bounds any m consecutive
points: e with the picks after it (in [e, n]) by g(n-e+1) once e >= 2.  At
the root it ends the loop over least points, and as g(m+1) <= g(m) + 1 it
cuts wherever the open bound g(n-e) on the picks in (e, n] would.
Each step starts from the answer certified for n-1: its value is the
incumbent and its lex-least witness the best set.  A wave-free set of that
size without n lies in [n-1], so none comes before the witness in lex
order; until the search passes the witness, a set of the same size (a tie)
also wins, and it must hold n.  Every larger set holds n too, so subtrees
that have lost n are pruned and from the first node the search looks ahead
to n: including e drops every later candidate x that would close a wave
rest + x + n whose first k-1 points, the top one e, are all chosen (the
strict length-2 patterns keep their doubling counts instead, and for k = 1
no wave has such a rest).  Where the look-ahead runs, no chosen point ever
completes a wave that ends at n, since it was dropped when the top of that
wave's first k-1 points was chosen, so n is never dropped; the pruning of
branches that have lost n serves the patterns without the look-ahead.
While a tie can still win, every cut compares against one point less than
the incumbent.  A branch carries its candidates as one int, bit x set while
x is still a candidate: the next point is its lowest bit, the generic count
adds its bit count, and the points a choice forbids leave with one AND.
The reported witness is the lexicographically least optimum: the search
visits subsets in lexicographic order and no cut ever removes a subset
that could still win.

Which candidates would complete a wave is answered by one kernel,
``_prefix_completions``: for a point e it lists every k-point prefix
w_1 < ... < w_{k-1} < e whose gaps relate as pi(1..k-1) do, each as one
mask of the wave's other points: the w's below e and, above e, the final
points x that complete it to a wave.  Those are exactly the points whose
last gap x - e lies between the largest prefix gap with a smaller pi-value
and the smallest with a larger one (open interval in strict mode, closed
in weak mode), so each prefix costs one int whatever the universe.  The
prefixes are built from e downward, each gap stepped through the interval
that ``_gap_interval`` leaves it given the gaps above it, as ``find_wave``
steps, so no prefix that fails the pattern is ever built.
Grouped by the top point w_{k-1}, the list lets including e scan only the
groups of chosen points, ORing into the branch's forbidden mask every mask
with no unchosen point below e (the bits below e that come along are
harmless, since only candidates above e are filtered).
For the two patterns of length 2 the completion rule also has a closed
shape (every admissible next element doubles the current span, upward for
2,1 and mirrored for 1,2), which counts in closed form how many elements
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
from typing import Iterable

from .perm import Permutation, _reductions, _Value
from .waves import IntSet, Mode, _gap_interval, wave_predicate

__all__ = [
    "Coloring",
    "DensityResult",
    "ColoringResult",
    "exact_g",
    "exact_P",
    "recursive_upper_bound_g",
]

DEFAULT_NODE_BUDGET = 10**8

# Per-removal log factors of the two recursive upper-bound rules.
SINGLE_REMOVAL_FACTOR = 30
PAIR_REMOVAL_FACTOR = 42


class Coloring(_Value):
    """Total assignment of [M] to colors 1..palette; index i+1 -> assignment[i]."""

    assignment: tuple[int, ...]
    palette: int

    def __init__(self, assignment: Iterable[int], palette: int) -> None:
        assignment = tuple(assignment)
        if palette < 1:
            raise ValueError("palette must be >= 1")
        for i, c in enumerate(assignment, start=1):
            if not 1 <= c <= palette:
                raise ValueError(f"point {i} has color {c} outside 1..{palette}")
        self.__dict__.update(assignment=assignment, palette=palette)

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


class DensityResult(_Value):
    pattern: Permutation
    n: int
    mode: Mode
    value: int
    witness: IntSet
    status: str  # "exact" | "lower-bound"
    nodes: int

    def __init__(
        self, pattern: Permutation, n: int, mode: Mode, value: int, witness: IntSet,
        status: str, nodes: int,
    ) -> None:
        self.__dict__.update(pattern=pattern, n=n, mode=mode, value=value,
                             witness=witness, status=status, nodes=nodes)


class ColoringResult(_Value):
    pattern: Permutation
    r: int
    mode: Mode
    value: int
    extremal: Coloring
    status: str  # "exact" | "lower-bound"
    nodes: int

    def __init__(
        self, pattern: Permutation, r: int, mode: Mode, value: int, extremal: Coloring,
        status: str, nodes: int,
    ) -> None:
        self.__dict__.update(pattern=pattern, r=r, mode=mode, value=value,
                             extremal=extremal, status=status, nodes=nodes)


class _OutOfBudget(Exception):
    """The node budget ran out; ``_GEngine._solve_next`` attaches its best set so far."""

    value = 0
    points: tuple[int, ...] = ()


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        if limit < 0:
            raise ValueError(f"node budget must be >= 0, got {limit}")
        self.limit = limit
        self.spent = 0

    def charge(self) -> None:
        """Spend one node, or raise ``_OutOfBudget`` spending nothing once none is left."""
        if self.spent >= self.limit:
            raise _OutOfBudget
        self.spent += 1


def _ext_doubling_up(m1: int, z: int, n: int) -> int:
    """Exact count of elements addable in (z, n] for the 2,1 pattern, m1 < z.

    A set is free of descending-gap triples iff each element sits at least
    its distance-from-the-minimum above its predecessor, so from state
    (min m1, last z) the cheapest continuation doubles the span each step:
    m1 + 2d, m1 + 4d, ... with d = z - m1.
    """
    return ((n - m1) // (z - m1)).bit_length() - 1


def _prefix_completions(vals: tuple[int, ...], e: int, strict: bool) -> list[int]:
    """Every order-compatible prefix ending at e, as one mask of its wave's other points.

    A prefix is w_1 < ... < w_{k-1} < e whose gaps relate pairwise as
    vals[:k-1] do.  The prefixes are built from e downward: each gap takes
    only the values that ``_gap_interval`` allows against the gaps above
    it, smallest first, so the prefixes come out with w_{k-1} descending,
    then w_{k-2}, and so on.  Its mask has the bits of the w's below e and,
    above e, the bit of every x such that prefix + (x,) is a wave: its last
    gap lies in ``_gap_interval`` of the prefix gaps, strictly (strict mode)
    or weakly (weak mode) between ``lo``, the largest prefix gap whose value
    is below vals[-1], and ``hi``, the smallest whose value is above it.
    With no ``hi`` the mask is negative, i.e. it runs on forever, so it
    never depends on the universe.  Prefixes no point completes are left
    out.
    For 2,1 at e = 4, (3, 4) has no completion, (2, 4) completes at 5 and
    (1, 4) at 5 or 6; split at e, each mask reads (prefix, completions):

    >>> e = 4
    >>> masks = _prefix_completions((2, 1), e, True)
    >>> [(bin(m & (1 << e) - 1), bin(m >> e << e)) for m in masks]
    [('0b100', '0b100000'), ('0b10', '0b1100000')]
    """
    k = len(vals)
    # gaps are set from the top one down; listed in that order, they pair with
    # vals[k-2], ..., vals[0], and the last gap's pi-value follows them
    order = vals[-2::-1] + vals[-1:]
    gaps: list[int] = []
    out: list[int] = []

    def down(i: int, upper: int, rest: int) -> None:
        first, last = _gap_interval(order, gaps, strict)
        if i < 0:
            if last is None:
                out.append(rest | -(1 << e + first))
            elif last >= first:
                out.append(rest | (1 << e + last + 1) - (1 << e + first))
            return
        # gap i runs from w_{i+1} up to upper; w_{i+1} >= i + 1 leaves room below
        top = upper - i - 1
        if last is None or last > top:
            last = top
        for d in range(first, last + 1):
            gaps.append(d)
            down(i - 1, upper - d, rest | 1 << upper - d)
            gaps.pop()

    down(k - 2, e, 0)
    return out


class _GEngine:
    """Incremental exact-g solver for one (pattern, mode) pair."""

    def __init__(self, pi: Permutation, mode: Mode):
        self.pi = pi
        self.strict = mode == "strict"
        self.g: list[int] = [0]
        self.witnesses: list[tuple[int, ...]] = [()]
        # tables[e]: _prefix_completions of e grouped by the prefix's top point,
        # built when the search reaches e
        self.tables: dict[int, dict[int, list[int]]] = {}
        self.desc2 = self.strict and pi.values == (2, 1)
        self.asc2 = self.strict and pi.values == (1, 2)
        self.lock = threading.Lock()

    def ensure(self, n: int, budget: _Budget) -> None:
        with self.lock:
            while len(self.g) <= n:
                self._solve_next(budget)

    def _table(self, e: int) -> dict[int, list[int]]:
        """``tables[e]``: the masks of ``_prefix_completions`` by the prefix's top point."""
        table = self.tables.get(e)
        if table is None:
            # the empty prefix (k = 1) has no top point; e stands in, always chosen
            table = self.tables[e] = {}
            below = (1 << e) - 1
            for wave in _prefix_completions(self.pi.values, e, self.strict):
                top = (wave & below or 1 << e).bit_length() - 1
                table.setdefault(top, []).append(wave)
        return table

    def _ends(self, e: int, n: int) -> list[int]:
        """Waves rest + x + n with x in (e, n) whose first k-1 points top out at e.

        Each entry is one mask, ``rest | xs``: rest holds the first k-1 points
        (e the highest) and xs, above e, the bit of every such x.
        """
        xs_of: dict[int, int] = {}
        for x in range(e + 1, n):
            below = (1 << x) - 1
            for wave in self._table(x).get(e, ()):
                if wave >> n & 1:
                    rest = wave & below
                    xs_of[rest] = xs_of.get(rest, 0) | 1 << x
        return [rest | xs for rest, xs in xs_of.items()]

    def _solve_next(self, budget: _Budget) -> None:
        n = len(self.g)
        g = self.g
        tables = self.tables
        desc2, asc2 = self.desc2, self.asc2
        # start from the certified answer for n-1; while tie is set, a set of
        # g(n-1) points that comes before its witness in lex order also wins
        incumbent = g[n - 1]
        best = self.witnesses[n - 1]
        prev = list(best)
        tie = 1
        celems: list[int] = []
        cmask = 0
        # the strict length-2 patterns keep their doubling counts and build no
        # tables up to n; for k = 1 a wave's first k-1 points are empty, so no
        # chosen point tops them
        lookahead = len(self.pi) >= 2 and not (desc2 or asc2)
        # ends[e]: _ends(e, n), built on e's first visit
        ends: dict[int, list[int]] = {}

        def rec(avail: int) -> None:
            # bit x of avail is set while x is still a candidate; n is one on entry
            nonlocal incumbent, best, cmask, tie
            csize = len(celems)
            while avail:
                low = avail & -avail
                e = low.bit_length() - 1
                # a branch survives only if it can still beat incumbent - tie points
                beat = incumbent - tie
                # e and every later pick lie in [e, n], a shift of [n-e+1]; at the
                # root no count below cuts more than this
                if e >= 2 and csize + g[n - e + 1] <= beat:
                    break
                # the 2,1 and generic counts fall as e grows, the 1,2 one rises
                if desc2 and csize:
                    if csize + 1 + _ext_doubling_up(celems[0], e, n) <= beat:
                        break
                elif asc2 and csize and csize + 1 + (e - celems[-1]).bit_length() <= beat:
                    # the kernel dropped every x > 2b - a for chosen a < b, so at most
                    # bit_length(e - c) picks follow e (c the last chosen point) and one
                    # AND drops every e this rejects; where 2e - c >= n the picks in
                    # [e, n] count fewer, but the translation cut breaks first there
                    avail &= -1 << celems[-1] + (1 << beat - csize - 1)
                    continue
                elif csize + avail.bit_count() <= beat:
                    break
                avail ^= low
                budget.charge()
                celems.append(e)
                # from g(n-1)'s witness on in lex order only a larger set wins
                if tie and celems >= prev:
                    tie = 0
                if csize + 1 > incumbent - tie:
                    incumbent = csize + 1
                    best = tuple(celems)
                    tie = 0
                table = tables.get(e)
                if table is None:
                    table = self._table(e)
                # a wave is live when every point it has below e is chosen; all
                # chosen points lie below e
                free = (low - 1) ^ cmask
                cmask |= low
                dead = 0
                for t in celems:
                    for wave in table.get(t, ()):
                        if not wave & free:
                            dead |= wave
                if lookahead:
                    # every winning set holds n, so no x may close a wave rest + x + n
                    waves = ends.get(e)
                    if waves is None:
                        waves = ends[e] = self._ends(e, n)
                    for wave in waves:
                        if not wave & free:
                            dead |= wave
                newavail = avail & ~dead
                if newavail >> n & 1:
                    rec(newavail)
                celems.pop()
                cmask ^= low

        try:
            rec((1 << n + 1) - 2)
        except _OutOfBudget as ex:
            ex.value, ex.points = incumbent, best
            raise
        g.append(incumbent)
        self.witnesses.append(best)


_ENGINES: dict[tuple[tuple[int, ...], str], _GEngine] = {}
_ENGINES_LOCK = threading.Lock()


def _engine_for(pi: Permutation, mode: Mode) -> _GEngine:
    key = (pi.values, mode)
    with _ENGINES_LOCK:
        eng = _ENGINES.get(key)
        if eng is None:
            eng = _ENGINES[key] = _GEngine(pi, mode)
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
    budget = _Budget(node_budget)
    engine = _engine_for(pi, mode)
    try:
        engine.ensure(n, budget)
    except _OutOfBudget as ex:
        value, points, status = ex.value, ex.points, "lower-bound"
    else:
        value, points, status = engine.g[n], engine.witnesses[n], "exact"
    return DensityResult(
        pattern=pi,
        n=n,
        mode=mode,
        value=value,
        witness=IntSet(points, n),
        status=status,
        nodes=budget.spent,
    )


def _wave_table_for_coloring(
    pi: Permutation, mode: Mode, m: int, by_max: list[list[int]]
) -> None:
    """Extend by_max with the rest-masks of waves ending at point m."""
    pred = wave_predicate(mode)
    by_max.append([
        sum(1 << p for p in combo)
        for combo in itertools.combinations(range(1, m), len(pi))
        if pred(combo + (m,), pi)
    ])


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
    status = "exact"
    M = 0
    while True:
        M += 1
        _wave_table_for_coloring(pi, mode, M, by_max)
        classmask = [0] * (min(r, M) + 1)  # canonical introduction uses <= M colors
        sol = [0] * (M + 1)

        def assign(p: int, introduced: int) -> bool:
            if p > M:
                return True
            for c in range(1, min(introduced + 1, r) + 1):
                budget.charge()
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

        try:
            found = assign(1, 0)
        except _OutOfBudget:
            found, status = False, "lower-bound"
        if found:
            last_good = tuple(sol[1 : M + 1])
            continue
        # assign's closure refers to itself; break that cycle so by_max goes now
        del assign
        return ColoringResult(
            pattern=pi,
            r=r,
            mode=mode,
            value=M,
            extremal=Coloring(last_good, r),
            status=status,
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
    factors = (SINGLE_REMOVAL_FACTOR, PAIR_REMOVAL_FACTOR)
    memo: dict[tuple[int, ...], float] = {}

    def u(vals: tuple[int, ...]) -> float:
        if len(vals) == 1:
            return 2.0
        got = memo.get(vals)
        if got is None:
            got = memo[vals] = min(
                f * log_n * u(sub) for f, sub in zip(factors, _reductions(vals))
            )
        return got

    return math.ceil(u(pi.values))
