"""Permutation core: one-line notation, structural predicates, and the
polylog-exponent classifier.

Permutations are bijections on {1..k} held in one-line notation, 1-indexed:
``Permutation((4, 3, 1, 2))`` maps 1->4, 2->3, 3->1, 4->2.  Everything in
this package treats a permutation as the *relative order* of the gap
sequence of an integer wave, so the only combinators provided are the ones
that arithmetic on waves needs: normalization of an arbitrary distinct
sequence, positional reversal, value deletion, and the direct difference
(left block stacked above the right block).

``classify`` computes, for each pattern, the best interval of exponents e
such that the largest wave-free subset of [n] grows like (log n)^e.  The
upper exponent comes from two recursive removal rules (drop the value 1 at
a cost of one log factor; drop the values 1 and 2 together at the same
cost when they sit in non-adjacent positions).  The lower exponent comes
from structure: peak-free patterns are tight at k-1, layered patterns are
tight at k-l-1 where l counts non-final layers of size at least 2, and
otherwise two constructive rules recurse (strip a leading/trailing maximal
value; split at a direct-difference seam), applied to the pattern and to
its reversal since reversal preserves both extremal quantities.
"""

from __future__ import annotations

import functools
from operator import attrgetter
from typing import Iterable, Sequence

__all__ = [
    "Permutation",
    "Classification",
    "normalize",
    "reverse",
    "remove_values",
    "peaks",
    "layers",
    "direct_difference",
    "classify",
]

# classify() recurses over sub-patterns of every length below k; the state
# space is super-exponential in k, so refuse silly inputs up front.
CLASSIFY_MAX_LEN = 12


class _Value:
    """Base of the immutable result and record classes: a value object.

    A subclass keeps this contract:

    - it annotates its fields in the class body, in order, and nothing else;
    - its ``__init__`` takes the fields in that order, by position or by
      keyword, runs every check on them, and then stores them all with one
      ``self.__dict__.update(...)``, which bypasses the read-only
      ``__setattr__``.

    In return the base gives it:

    - equality and hashing by the tuple of fields in field order, equal only
      to instances of the same class;
    - ``repr`` as ``Name(field=value, ...)``, the form a dataclass prints;
    - ``AttributeError`` on assigning or deleting any attribute;
    - pickle and copy round-trips, which restore the stored fields without
      running ``__init__``.

    Unlike ``@dataclass(frozen=True)`` it generates no code when a class is
    defined, so importing wavelab execs nothing and never imports
    ``dataclasses``; ``dataclasses.fields``, ``asdict`` and ``replace`` do
    not apply to its subclasses.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # the fields' values in order (the bare value when there is one field)
        cls._key = attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Permutation(_Value):
    """A permutation of {1..k} in one-line notation.

    >>> p = Permutation((4, 3, 1, 2))
    >>> len(p), p(1), p.position(1)
    (4, 4, 3)
    >>> str(p)
    '4,3,1,2'
    """

    values: tuple[int, ...]

    def __init__(self, values: Iterable[int]) -> None:
        vals = tuple(values)
        k = len(vals)
        if k < 1:
            raise ValueError("permutation must have length >= 1")
        if sorted(vals) != list(range(1, k + 1)):
            raise ValueError(f"not a permutation of 1..{k}: {vals}")
        self.__dict__.update(values=vals)

    def __hash__(self) -> int:
        # the key of the one field is the field itself: hash it without the lookup
        return hash(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """Value at position i, 1-indexed."""
        if not 1 <= i <= len(self.values):
            raise IndexError(f"position {i} out of range 1..{len(self.values)}")
        return self.values[i - 1]

    def position(self, value: int) -> int:
        """Position of ``value``, 1-indexed (the inverse permutation)."""
        try:
            return self.values.index(value) + 1
        except ValueError:
            raise ValueError(f"value {value} not in permutation") from None

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse comma-separated one-line notation; compact digits ok for k <= 9.

        >>> Permutation.parse("4,3,1,2") == Permutation.parse("4312")
        True
        """
        text = text.strip()
        if not text:
            raise ValueError("empty permutation text")
        if "," in text:
            parts = text.split(",")
        elif text.isdigit():
            parts = list(text)  # compact digit form, values 1..9
        else:
            raise ValueError(f"cannot parse permutation from {text!r}")
        try:
            vals = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"cannot parse permutation from {text!r}") from None
        return cls(vals)


class Classification(_Value):
    """Structure and proven exponent interval for one pattern.

    ``exponent_lb`` is None when no lower-bound rule applies.  For layered
    patterns ``layers`` holds (start, end, size) position triples and
    ``nonfinal_big_layers`` counts non-final layers of size >= 2; both are
    None otherwise.
    """

    pattern: Permutation
    peaks: tuple[int, ...]
    layered: bool
    layers: tuple[tuple[int, int, int], ...] | None
    nonfinal_big_layers: int | None
    exponent_lb: int | None
    exponent_ub: int

    def __init__(
        self,
        pattern: Permutation,
        peaks: tuple[int, ...],
        layered: bool,
        layers: tuple[tuple[int, int, int], ...] | None,
        nonfinal_big_layers: int | None,
        exponent_lb: int | None,
        exponent_ub: int,
    ) -> None:
        self.__dict__.update(
            pattern=pattern, peaks=peaks, layered=layered, layers=layers,
            nonfinal_big_layers=nonfinal_big_layers, exponent_lb=exponent_lb,
            exponent_ub=exponent_ub,
        )


def normalize(seq: Sequence[int] | Iterable[int]) -> Permutation:
    """The permutation recording the relative order of a distinct sequence.

    >>> normalize((5, 9, 2)).values
    (2, 3, 1)
    >>> normalize((4, 3, 2)).values
    (3, 2, 1)
    """
    seq = tuple(seq)
    if not seq:
        raise ValueError("cannot normalize an empty sequence")
    if len(set(seq)) != len(seq):
        raise ValueError(f"cannot normalize sequence with duplicates: {seq}")
    rank = {v: r for r, v in enumerate(sorted(seq), start=1)}
    return Permutation(tuple(rank[v] for v in seq))


def reverse(pi: Permutation) -> Permutation:
    """Positional reversal: output(i) = pi(k+1-i).

    >>> reverse(Permutation((1, 4, 2, 3))).values
    (3, 2, 4, 1)
    """
    return Permutation(pi.values[::-1])


def remove_values(pi: Permutation, vals: Iterable[int]) -> Permutation:
    """Delete the given values from the one-line word and renormalize.

    >>> remove_values(Permutation((4, 3, 1, 2)), {1}).values
    (3, 2, 1)
    >>> remove_values(Permutation((1, 4, 2, 3)), {1, 2}).values
    (2, 1)
    """
    vals = set(vals)
    present = set(pi.values)
    if not vals <= present:
        raise ValueError(f"values {sorted(vals - present)} not in permutation")
    if vals == present:
        raise ValueError("cannot delete every value of a permutation")
    return normalize([v for v in pi.values if v not in vals])


def peaks(pi: Permutation) -> tuple[int, ...]:
    """Interior positions whose value exceeds both neighbours, ascending.

    >>> peaks(Permutation((1, 4, 2, 3)))
    (2,)
    >>> peaks(Permutation((4, 3, 1, 2)))
    ()
    """
    v = pi.values
    return tuple(
        i + 1 for i in range(1, len(v) - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]
    )


def layers(pi: Permutation) -> tuple[tuple[int, int, int], ...] | None:
    """Layer decomposition, or None when the pattern is not layered.

    A layered pattern is the descending word with some descending runs
    reversed: it splits into maximal contiguous ascending runs whose value
    blocks strictly descend left to right.  Returns (start, end, size)
    position triples.

    >>> layers(Permutation((7, 8, 9, 6, 2, 3, 4, 5, 1)))
    ((1, 3, 3), (4, 4, 1), (5, 8, 4), (9, 9, 1))
    >>> layers(Permutation((2, 3, 1, 4))) is None
    True
    """
    v = pi.values
    k = len(v)
    runs: list[tuple[int, int]] = []
    start = 0
    for i in range(1, k):
        if v[i] < v[i - 1]:
            runs.append((start, i - 1))
            start = i
    runs.append((start, k - 1))
    hi = k
    out = []
    for a, b in runs:
        block = v[a : b + 1]
        # each run must be the contiguous value block just below the previous one
        if block != tuple(range(hi - len(block) + 1, hi + 1)):
            return None
        hi -= len(block)
        out.append((a + 1, b + 1, b - a + 1))
    return tuple(out)


def direct_difference(pi_l: Permutation, pi_r: Permutation) -> Permutation:
    """Left block shifted above the whole right block.

    >>> direct_difference(Permutation((1, 2)), Permutation((2, 1))).values
    (3, 4, 2, 1)
    """
    shift = len(pi_r)
    return Permutation(tuple(v + shift for v in pi_l.values) + pi_r.values)


def _nonfinal_big_layers(lay: tuple[tuple[int, int, int], ...]) -> int:
    return sum(1 for (_, _, size) in lay[:-1] if size >= 2)


def _reductions(values: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The patterns the two upper-bound rules reduce to, single removal first.

    Value 1 may always be dropped; values 1 and 2 together only when they
    sit in non-adjacent positions.  Needs length >= 2.

    >>> _reductions((1, 4, 2, 3))
    [(3, 1, 2), (2, 1)]
    >>> _reductions((2, 1, 3))
    [(1, 2)]
    """
    pi = Permutation(values)
    out = [remove_values(pi, {1}).values]
    if abs(pi.position(1) - pi.position(2)) >= 2:
        out.append(remove_values(pi, {1, 2}).values)
    return out


@functools.lru_cache(maxsize=None)
def _exponent_ub(values: tuple[int, ...]) -> int:
    if len(values) == 1:
        return 0
    return 1 + min(_exponent_ub(sub) for sub in _reductions(values))


def _split_candidates(values: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Direct-difference seams: prefixes occupying the top value block."""
    k = len(values)
    out = []
    for p in range(1, k):
        if min(values[:p]) == k - p + 1:  # prefix values are exactly {k-p+1..k}
            left = normalize(values[:p]).values
            right = values[p:]  # already a permutation of 1..k-p
            out.append((left, right))
    return out


@functools.lru_cache(maxsize=None)
def _exponent_lb(values: tuple[int, ...]) -> int | None:
    k = len(values)
    if k == 1:
        return 0
    pi = Permutation(values)
    if not peaks(pi):
        return k - 1
    best: int | None = None

    def consider(cand: int | None) -> None:
        nonlocal best
        if cand is not None and (best is None or cand > best):
            best = cand

    # reversal preserves both extremal quantities, so every rule may be
    # applied to the reversed word as well
    for word in (values, values[::-1]):
        lay = layers(Permutation(word))
        if lay is not None:
            consider(k - _nonfinal_big_layers(lay) - 1)
        if word[0] == k:
            sub = remove_values(Permutation(word), {k}).values
            sub_lb = _exponent_lb(sub)
            if sub_lb is not None:
                consider(1 + sub_lb)
        for left, right in _split_candidates(word):
            lb_l = _exponent_lb(left)
            lb_r = _exponent_lb(right)
            if lb_l is not None and lb_r is not None:
                consider(lb_l + lb_r)
    return best


def classify(pi: Permutation) -> Classification:
    """Peak/layer structure plus the proven exponent interval for ``pi``.

    >>> c = classify(Permutation((4, 3, 1, 2)))
    >>> (c.exponent_lb, c.exponent_ub)
    (3, 3)
    >>> classify(Permutation((7, 8, 9, 6, 2, 3, 4, 5, 1))).exponent_ub
    6
    """
    if len(pi) > CLASSIFY_MAX_LEN:
        raise ValueError(
            f"classification of length-{len(pi)} patterns exceeds the cap "
            f"of {CLASSIFY_MAX_LEN} (the recursion is super-exponential in length)"
        )
    lay = layers(pi)
    return Classification(
        pattern=pi,
        peaks=peaks(pi),
        layered=lay is not None,
        layers=lay,
        nonfinal_big_layers=None if lay is None else _nonfinal_big_layers(lay),
        exponent_lb=_exponent_lb(pi.values),
        exponent_ub=_exponent_ub(pi.values),
    )
