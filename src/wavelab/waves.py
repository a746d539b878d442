"""Wave predicates and wave search inside integer sets.

A pattern wave for pi in S_k is an increasing integer sequence
x_1 < ... < x_{k+1} whose consecutive gaps compare exactly the way pi's
values compare: d_i > d_j if and only if pi(i) > pi(j).  The "if and only
if" forces the gaps to be pairwise distinct.  The weak-difference variant
only demands the one-directional pi(i) > pi(j) => d_i >= d_j and therefore
admits ties; every strict wave is a weak wave.

Both modes are one gap-order rule, ``_gap_interval``: against the earlier
gaps it confines the next gap to one interval, above ``lo``, the largest
earlier gap whose pi-value is smaller, and below ``hi``, the smallest
earlier gap whose pi-value is larger, strictly in strict mode and weakly
(but at least 1) in weak mode.  ``prefix_feasible`` checks each gap of a
partial sequence against the interval of the gaps before it, the two wave
predicates are ``prefix_feasible`` on a sequence of full length k+1, and
``find_wave`` and the exact-g kernel in ``solvers`` both step through it.

``find_wave`` searches an :class:`IntSet` for the lexicographically least
witness by depth-first extension over increasing subsequences.  Each level
takes only the elements whose gap to the previous point lies in the
interval, found by bisection, so every prefix it visits is order-compatible
with the pattern.  Nothing is lost: a genuine wave has every prefix
order-compatible, and the elements are visited in ascending order, so the
first complete sequence the search reaches is the least witness.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Literal, Sequence

from .perm import Permutation, _Value

__all__ = [
    "IntSet",
    "WaveWitness",
    "differences",
    "is_pi_wave",
    "is_weak_pi_wave",
    "prefix_feasible",
    "find_wave",
]

Mode = Literal["strict", "weak"]


def _check_mode(mode: str) -> None:
    if mode not in ("strict", "weak"):
        raise ValueError(f"mode must be 'strict' or 'weak', got {mode!r}")


class IntSet(_Value):
    """Strictly increasing positive integers inside the universe [n].

    >>> s = IntSet((1, 2, 4, 8), universe=8)
    >>> 4 in s, 5 in s, s.successor(4)
    (True, False, 8)
    """

    elements: tuple[int, ...]
    universe: int

    def __init__(self, elements: Iterable[int], universe: int) -> None:
        els = tuple(elements)
        if universe < 1:
            raise ValueError("universe must be >= 1")
        if els:
            if els[0] < 1:
                raise ValueError("elements must be positive")
            if els[-1] > universe:
                raise ValueError(
                    f"element {els[-1]} exceeds universe {universe}"
                )
            if any(a >= b for a, b in zip(els, els[1:])):
                raise ValueError("elements must be strictly increasing")
        self.__dict__.update(elements=els, universe=universe)

    @classmethod
    def from_iterable(cls, it: Iterable[int], universe: int | None = None) -> "IntSet":
        els = tuple(sorted(set(it)))
        if not els:
            raise ValueError("integer set must be non-empty")
        return cls(els, universe if universe is not None else els[-1])

    @classmethod
    def parse(cls, text: str, universe: int | None = None) -> "IntSet":
        try:
            vals = [int(p) for p in text.strip().split(",")]
        except ValueError:
            raise ValueError(f"cannot parse integer set from {text!r}") from None
        return cls.from_iterable(vals, universe)

    def __contains__(self, x: int) -> bool:
        i = bisect.bisect_left(self.elements, x)
        return i < len(self.elements) and self.elements[i] == x

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __str__(self) -> str:
        return ",".join(str(e) for e in self.elements)

    def successor(self, x: int) -> int | None:
        """Least element strictly above x, or None."""
        i = bisect.bisect_right(self.elements, x)
        return self.elements[i] if i < len(self.elements) else None

    def reflected(self) -> "IntSet":
        """The mirror image {n+1-s} in the same universe."""
        n = self.universe
        return IntSet(tuple(n + 1 - e for e in reversed(self.elements)), n)


def differences(points: Sequence[int]) -> tuple[int, ...]:
    """Consecutive gaps of a strictly increasing sequence.

    >>> differences((1, 2, 6, 9))
    (1, 4, 3)
    """
    if len(points) < 2:
        raise ValueError("need at least two points to take differences")
    if any(a >= b for a, b in zip(points, points[1:])):
        raise ValueError(f"points must be strictly increasing: {tuple(points)}")
    return tuple(b - a for a, b in zip(points, points[1:]))


def is_pi_wave(points: Sequence[int], pi: Permutation) -> bool:
    """Total predicate: is ``points`` a strict pattern wave for ``pi``?

    Malformed input (wrong length, not increasing, tied gaps) is simply not
    a wave; the predicate never raises.

    >>> is_pi_wave((1, 3, 4), Permutation((2, 1)))
    True
    >>> is_pi_wave((1, 2, 3), Permutation((1, 2)))
    False
    """
    return len(points) == len(pi) + 1 and prefix_feasible(points, pi, "strict")


def is_weak_pi_wave(points: Sequence[int], pi: Permutation) -> bool:
    """Total predicate for the weak-difference variant (gap ties allowed).

    >>> is_weak_pi_wave((1, 2, 3), Permutation((2, 1)))
    True
    >>> is_weak_pi_wave((1, 2, 4), Permutation((2, 1)))
    False
    """
    return len(points) == len(pi) + 1 and prefix_feasible(points, pi, "weak")


def wave_predicate(mode: Mode):
    """The point-sequence predicate for the given mode."""
    _check_mode(mode)
    return is_pi_wave if mode == "strict" else is_weak_pi_wave


class WaveWitness(_Value):
    """A verified wave: construction fails unless the predicate holds."""

    pattern: Permutation
    points: tuple[int, ...]
    mode: Mode

    def __init__(
        self, pattern: Permutation, points: Iterable[int], mode: Mode = "strict"
    ) -> None:
        points = tuple(points)
        if not wave_predicate(mode)(points, pattern):
            raise ValueError(
                f"points {points} are not a {mode} wave for {pattern}"
            )
        self.__dict__.update(pattern=pattern, points=points, mode=mode)

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.points)


def prefix_feasible(partial: Sequence[int], pi: Permutation, mode: Mode = "strict") -> bool:
    """Can ``partial`` still be the start of a wave for ``pi``?

    True iff the gaps present so far relate exactly as the first values of
    the pattern relate (strict mode: order-isomorphic with distinct gaps;
    weak mode: the one-directional condition).  Total: malformed input is
    simply infeasible.
    """
    _check_mode(mode)
    partial = tuple(partial)
    if not partial or len(partial) > len(pi) + 1:
        return False
    # first >= 1 in both modes, so a sequence that does not increase fails too
    strict = mode == "strict"
    gaps: list[int] = []
    for a, b in zip(partial, partial[1:]):
        first, last = _gap_interval(pi.values, gaps, strict)
        d = b - a
        if d < first or (last is not None and d > last):
            return False
        gaps.append(d)
    return True


def _gap_interval(
    vals: Sequence[int], gaps: Sequence[int], strict: bool
) -> tuple[int, int | None]:
    """Allowed range ``(first, last)`` of the gap after ``gaps``, inclusive.

    The new gap stands where pi has ``vals[len(gaps)]``.  In strict mode it
    must differ from every earlier gap and lie above each one with a
    smaller pi-value and below each one with a larger; in weak mode it may
    tie them, but is at least 1.  ``last`` is None when no earlier gap has a
    larger pi-value; the range is empty when first > last.

    >>> _gap_interval((2, 3, 1), (4, 9), True)
    (1, 3)
    >>> _gap_interval((2, 3, 1), (4, 9), False)
    (1, 4)
    >>> _gap_interval((1, 3, 2), (4, 9), True)
    (5, 8)
    """
    top = vals[len(gaps)]
    lo = 0
    hi = None
    for v, d in zip(vals, gaps):
        if v < top:
            if d > lo:
                lo = d
        elif hi is None or d < hi:
            hi = d
    if strict:
        return lo + 1, None if hi is None else hi - 1
    return max(lo, 1), hi


def find_wave(s: IntSet, pi: Permutation, mode: Mode = "strict") -> WaveWitness | None:
    """Lexicographically least wave among the elements of ``s``, or None.

    Depth-first search over increasing subsequences, extending by elements
    in ascending order, so the first completed sequence is the least
    witness.  Each level steps only through the elements whose gap to the
    previous point lies in ``_gap_interval`` of the gaps so far, so a
    sequence that reaches length k+1 is a wave without a further check, and
    the last level takes the first element in range.
    """
    _check_mode(mode)
    k = len(pi)
    need = k + 1
    els = s.elements
    m = len(els)
    if m < need:
        return None
    strict = mode == "strict"
    vals = pi.values
    pts: list[int] = []
    gaps: list[int] = []

    def extend(start: int) -> bool:
        # pts holds at least one point; try every element from start on
        # whose gap to pts[-1] the earlier gaps allow
        first, last = _gap_interval(vals, gaps, strict)
        x0 = pts[-1]
        lo = bisect.bisect_left(els, x0 + first, start)
        hi = m if last is None else bisect.bisect_right(els, x0 + last, lo)
        if len(pts) + 1 == need:
            if lo < hi:
                pts.append(els[lo])
                return True
            return False
        for idx in range(lo, hi):
            x = els[idx]
            pts.append(x)
            gaps.append(x - x0)
            if extend(idx + 1):
                return True
            pts.pop()
            gaps.pop()
        return False

    for idx in range(m - k):
        pts.append(els[idx])
        if extend(idx + 1):
            return WaveWitness(pattern=pi, points=tuple(pts), mode=mode)
        pts.pop()
    return None
