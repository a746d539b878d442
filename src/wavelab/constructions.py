"""Executable constructions: recursive colorings, the product coloring, and
the pigeonhole wave-extraction procedures.

The two extraction procedures run the constructive argument behind the
recursive upper bounds literally, as one pipeline with two parameter sets.
Elements of the input set are classed by the dyadic size of a forward gap
(the immediate successor gap for the main variant, the three-step gap for
the strong variant); the heaviest class is thinned to every second (resp.
third) member and floor-divided by the class scale so that surviving gaps
are large multiples of the scale; a residue class mod 6 then supplies a
wave for the pattern without 1 (resp. without 1 and 2), which lifts back
to the original values with gaps so far apart that the insertion rule,
one successor element (resp. a profile-picked pair plus one three-step
successor), realizes the full pattern.  Every completed run is verified
against the wave predicate before returning; a verification failure
raises, because the lifting argument guarantees success whenever the
pigeonhole steps found mass, regardless of how small the input was.

The colorings are the matching lower-bound constructions: a palette-doubling
three-block coloring for patterns that begin with their maximum, and a
mixed-radix product coloring for direct differences, checked in the
weak-difference sense.  Both operations re-verify their own output and
refuse to return an unverified coloring.
"""

from __future__ import annotations

from .perm import Permutation, _Value, direct_difference, remove_values, reverse
from .solvers import Coloring
from .waves import IntSet, Mode, WaveWitness, find_wave, is_pi_wave, wave_predicate

__all__ = [
    "ExtractionTrace",
    "ExtractionFailure",
    "VerificationError",
    "profile_pick",
    "verify_coloring_wave_free",
    "ezconst_coloring",
    "product_coloring",
    "product_decompose",
    "extract_wave_main",
    "extract_wave_strong",
]


class ExtractionFailure(Exception):
    """An extraction step lacked the mass it needed; names the step."""

    def __init__(self, step: str, detail: str):
        self.step = step
        self.detail = detail
        super().__init__(f"extraction failed at step {step!r}: {detail}")


class VerificationError(RuntimeError):
    """A construction's self-check failed.  This signals a bug, not bad input."""


class ExtractionTrace(_Value):
    """Full record of one extraction run.

    For a reflected strong run (value 2 before value 1 in the pattern) the
    intermediate fields describe the run on the mirrored set with the
    reversed pattern; ``final`` is always a witness in the original set.
    """

    variant: str  # "main" | "strong"
    reflected: bool
    universe: int
    bin_index: int
    bins: tuple[tuple[int, tuple[int, ...]], ...]
    thinned: tuple[int, ...]
    residue_class: int
    residue_members: tuple[int, ...]
    inner_wave: tuple[int, ...]
    lifted: tuple[int, ...]
    inserted: tuple[int, ...]
    final: WaveWitness

    def __init__(
        self,
        variant: str,
        reflected: bool,
        universe: int,
        bin_index: int,
        bins: tuple[tuple[int, tuple[int, ...]], ...],
        thinned: tuple[int, ...],
        residue_class: int,
        residue_members: tuple[int, ...],
        inner_wave: tuple[int, ...],
        lifted: tuple[int, ...],
        inserted: tuple[int, ...],
        final: WaveWitness,
    ) -> None:
        self.__dict__.update(
            variant=variant, reflected=reflected, universe=universe, bin_index=bin_index,
            bins=bins, thinned=thinned, residue_class=residue_class,
            residue_members=residue_members, inner_wave=inner_wave, lifted=lifted,
            inserted=inserted, final=final,
        )

    def render(self) -> str:
        lines = [f"extraction variant: {self.variant}"]
        if self.reflected:
            lines.append(
                "pattern has value 2 before value 1: ran on the mirrored set "
                "with the reversed pattern; steps below are in mirror space"
            )
        lines.append(f"universe: [{self.universe}]")
        for j, members in self.bins:
            lines.append(f"gap class {j} (gaps in [2^{j - 1}, 2^{j})): " + _fmt(members))
        lines.append(f"chosen class s = {self.bin_index}")
        lines.append(f"thinned representatives (floor-divided by 2^{self.bin_index - 1}): "
                     + _fmt(self.thinned))
        lines.append(f"residue class j = {self.residue_class} (mod 6): "
                     + _fmt(self.residue_members))
        lines.append(f"inner wave for the reduced pattern: {_fmt(self.inner_wave)}")
        lines.append(f"lifted points: {_fmt(self.lifted)}")
        lines.append(f"inserted points: {_fmt(self.inserted)}")
        lines.append(f"final wave: {self.final}")
        return "\n".join(lines)


def _fmt(points) -> str:
    return ",".join(str(p) for p in points)


def profile_pick(a1: int, a2: int, a3: int) -> int:
    """Least i in {1, 2} whose gap a_{i+1} - a_i is at most half of a3 - a1.

    One of the two always qualifies: if both gaps exceeded half the total
    span they would sum to more than the span.

    >>> profile_pick(1, 2, 10), profile_pick(1, 9, 10), profile_pick(1, 5, 9)
    (1, 2, 1)
    """
    if not a1 < a2 < a3:
        raise ValueError(f"need a1 < a2 < a3, got {(a1, a2, a3)}")
    if 2 * (a2 - a1) <= a3 - a1:
        return 1
    if 2 * (a3 - a2) > a3 - a1:  # impossible: the two gaps sum to the span
        raise AssertionError("profile_pick invariant violated")
    return 2


def verify_coloring_wave_free(coloring: Coloring, pi: Permutation, mode: Mode = "strict") -> bool:
    """True iff no color class of the coloring contains a wave for ``pi``."""
    wave_predicate(mode)  # validate mode
    return _find_mono_wave(coloring, pi, mode) is None


def _find_mono_wave(coloring: Coloring, pi: Permutation, mode: Mode):
    """First (color, witness) pair over the ascending colors in use, or None."""
    need = len(pi) + 1
    classes: dict[int, list[int]] = {}
    for point, c in enumerate(coloring.assignment, start=1):
        classes.setdefault(c, []).append(point)
    for c in sorted(classes):
        pts = classes[c]
        if len(pts) < need:
            continue
        w = find_wave(IntSet(pts, universe=coloring.domain_size), pi, mode)
        if w is not None:
            return c, w
    return None


def ezconst_coloring(
    pi: Permutation,
    c0: Coloring,
    c0p: Coloring,
    mode: Mode = "strict",
) -> Coloring:
    """Palette-doubling three-block coloring for a pattern beginning with k.

    Blocks L and M copy ``c0`` (M with colors shifted up by the palette
    size), block R copies ``c0p``, a wave-free coloring for the pattern
    with its maximum deleted.  Any monochromatic wave would have to jump
    from L to R, making its first gap so large that the rest of the wave
    sits inside R, where the reduced pattern is excluded.  The output is
    re-verified before being returned.
    """
    k = len(pi)
    if k < 2:
        raise ValueError("pattern must have length >= 2")
    if pi(1) != k:
        raise ValueError("pattern must begin with its largest value")
    r = c0.palette
    if c0p.palette != r:
        raise ValueError(
            f"palettes must match: base has {r}, reduced has {c0p.palette}"
        )
    pi_reduced = remove_values(pi, {k})
    if not verify_coloring_wave_free(c0, pi, mode):
        raise ValueError("base coloring contains a monochromatic wave")
    if not verify_coloring_wave_free(c0p, pi_reduced, mode):
        raise ValueError("reduced coloring contains a monochromatic wave")
    assignment = (
        c0.assignment
        + tuple(c + r for c in c0.assignment)
        + c0p.assignment
    )
    out = Coloring(assignment, 2 * r)
    if not verify_coloring_wave_free(out, pi, mode):
        raise VerificationError(
            "three-block coloring failed its wave-free self-check"
        )
    return out


def product_decompose(x: int, m_l: int, m_r: int) -> tuple[int, int, int]:
    """Mixed-radix split x = m_r*(a-1) + (m_r/5)*(b-1) + c.

    >>> product_decompose(17, 3, 10)
    (2, 4, 1)
    >>> product_decompose(1, 3, 10)
    (1, 1, 1)
    """
    if m_r % 5:
        raise ValueError(f"right block size {m_r} is not divisible by 5")
    if not 1 <= x <= m_l * m_r:
        raise ValueError(f"point {x} outside [1..{m_l * m_r}]")
    fifth = m_r // 5
    a, rem = divmod(x - 1, m_r)
    b, c = divmod(rem, fifth)
    return a + 1, b + 1, c + 1


def product_coloring(
    pi_l: Permutation,
    pi_r: Permutation,
    m: int,
    c_l: Coloring,
    c_r: Coloring,
) -> Coloring:
    """Product coloring excluding monochromatic weak waves of a direct difference.

    Each point of [m_l * m_r] is split into (a, b, c) by ``product_decompose``
    and colored by the triple (c_l(a), c_r(c), b), flattened onto a palette
    of 5*m^2.  The inputs must be wave-free in the weak sense for their own
    patterns; the output is verified weak-wave-free for pi_l above pi_r.
    """
    m_l = c_l.domain_size
    m_r = c_r.domain_size
    if m_r % 5:
        raise ValueError(f"right block size {m_r} is not divisible by 5")
    if c_l.palette != m or c_r.palette != m:
        raise ValueError(
            f"both colorings must use palette {m}, got {c_l.palette} and {c_r.palette}"
        )
    if not verify_coloring_wave_free(c_l, pi_l, "weak"):
        raise ValueError("left coloring contains a monochromatic weak wave")
    if not verify_coloring_wave_free(c_r, pi_r, "weak"):
        raise ValueError("right coloring contains a monochromatic weak wave")
    assignment = []
    for x in range(1, m_l * m_r + 1):
        a, b, c = product_decompose(x, m_l, m_r)
        assignment.append(((c_l(a) - 1) * m + (c_r(c) - 1)) * 5 + b)
    out = Coloring(tuple(assignment), 5 * m * m)
    if not verify_coloring_wave_free(out, direct_difference(pi_l, pi_r), "weak"):
        raise VerificationError("product coloring failed its weak wave-free self-check")
    return out


def _dyadic_bins(els: tuple[int, ...], step: int) -> dict[int, list[int]]:
    """Group element indices by the dyadic class of their ``step``-ahead gap.

    Index i (0-based) lands in class j when els[i+step] - els[i] is in
    [2^{j-1}, 2^j).  Only indices with a step-ahead successor are binned;
    the trailing elements carry no gap.
    """
    bins: dict[int, list[int]] = {}
    for i in range(len(els) - step):
        j = (els[i + step] - els[i]).bit_length()
        bins.setdefault(j, []).append(i)
    return bins


def _heaviest_bin(bins: dict[int, list[int]]) -> int:
    """Class index with the most members; least index on ties."""
    best_j = -1
    best = -1
    for j in sorted(bins):
        if len(bins[j]) > best:
            best = len(bins[j])
            best_j = j
    return best_j


def _residue_split(thinned: list[int]) -> dict[int, list[int]]:
    """Classes j = 1..6 by residue mod 6, with j = 6 meaning 0 mod 6."""
    classes: dict[int, list[int]] = {j: [] for j in range(1, 7)}
    for y in thinned:
        j = y % 6
        classes[j if j else 6].append(y)
    return classes


def _extract(
    s: IntSet,
    pi: Permutation,
    variant: str,
    step: int,
    stride: int,
    removed: set[int],
    insert,
    reflected: bool,
) -> tuple[WaveWitness, ExtractionTrace]:
    """The pigeonhole pipeline behind both extraction variants.

    Bins the ``step``-ahead gaps of ``s`` dyadically, thins the heaviest
    class to every ``stride``-th member scaled down by the class size,
    finds a wave for the pattern without the ``removed`` values in the
    least mod-6 residue class that has one, and lifts it back to ``s``.
    ``insert(pi, els, a_idx, lifted)`` then returns the assembled points
    and the inserted ones, where ``a_idx`` indexes the lifted points in
    ``els``.  When ``reflected``, all of this runs on the mirrored set with
    the reversed pattern and the assembled points are mirrored back.  The
    result is verified before it is returned.
    """
    n = s.universe
    run_pi = reverse(pi) if reflected else pi
    els = (s.reflected() if reflected else s).elements
    bins = _dyadic_bins(els, step)
    s_star = _heaviest_bin(bins)
    chosen = bins[s_star]
    shift = s_star - 1
    # every stride-th member of the chosen class, skipping the first stride
    thin_idx = [chosen[stride * j - 1] for j in range(2, len(chosen) // stride + 1)]
    thinned = [els[i] >> shift for i in thin_idx]
    back = dict(zip(thinned, thin_idx))
    classes = _residue_split(thinned)
    pi_reduced = remove_values(run_pi, removed)
    # the least residue class that holds a wave for the reduced pattern
    for j in range(1, 7):
        members = classes[j]
        if len(members) > len(pi_reduced):
            inner = find_wave(IntSet(tuple(members), universe=members[-1]), pi_reduced, "strict")
            if inner is not None:
                break
    else:
        raise ExtractionFailure(
            "inner-wave",
            f"no residue class contains a wave for {pi_reduced} "
            f"(thinned representatives: {_fmt(thinned) or 'none'})",
        )
    a_idx = [back[y] for y in inner.points]
    lifted = [els[i] for i in a_idx]
    final, inserted = insert(run_pi, els, a_idx, lifted)
    if reflected:
        final = tuple(n + 1 - p for p in reversed(final))
    if not is_pi_wave(final, pi):
        raise VerificationError(
            f"extraction assembled {final} which is not a wave for {pi}"
        )
    witness = WaveWitness(pattern=pi, points=final, mode="strict")
    trace = ExtractionTrace(
        variant=variant,
        reflected=reflected,
        universe=n,
        bin_index=s_star,
        bins=tuple((b, tuple(els[i] for i in bins[b])) for b in sorted(bins)),
        thinned=tuple(thinned),
        residue_class=j,
        residue_members=tuple(members),
        inner_wave=inner.points,
        lifted=tuple(lifted),
        inserted=inserted,
        final=witness,
    )
    return witness, trace


def _insert_successor(pi, els, a_idx, lifted):
    """Main variant: the successor in s of the lifted point in the minimum's slot."""
    ell = pi.position(1)
    u = els[a_idx[ell - 1] + 1]
    return tuple(lifted[:ell] + [u] + lifted[ell:]), (u,)


def _insert_pair_and_step(pi, els, a_idx, lifted):
    """Strong variant: a profile-picked pair for value 1, a three-step successor for 2."""
    ell = pi.position(1)
    rr = pi.position(2)
    assert ell <= rr - 2
    base = a_idx[ell - 1]
    c = profile_pick(els[base], els[base + 1], els[base + 2])
    u1 = els[base + c - 1]
    u2 = els[base + c]
    v = els[a_idx[rr - 2] + 3]  # three-step successor of the lifted point before slot r
    final = lifted[: ell - 1] + [u1, u2] + lifted[ell : rr - 1] + [v] + lifted[rr - 1 :]
    return tuple(final), (u1, u2, v)


def extract_wave_main(s: IntSet, pi: Permutation) -> tuple[WaveWitness, ExtractionTrace]:
    """Run the single-insertion extraction procedure on ``s``.

    Bins successor gaps dyadically, thins the heaviest class to every
    second member scaled down by the class size, finds a wave for the
    pattern-without-1 in the least mod-6 residue class that has one, lifts
    it, and inserts the successor of the lifted point at the pattern's
    minimum position.  Raises :class:`ExtractionFailure` when no residue
    class contains an inner wave (the only way the procedure can starve);
    a completed run always verifies.
    """
    if len(pi) < 2:
        raise ValueError("extraction needs a pattern of length >= 2")
    if len(s) < 2:
        raise ValueError("extraction needs at least 2 elements")
    return _extract(s, pi, "main", 1, 2, {1}, _insert_successor, False)


def extract_wave_strong(s: IntSet, pi: Permutation) -> tuple[WaveWitness, ExtractionTrace]:
    """Run the two-insertion extraction procedure on ``s``.

    Bins three-step gaps and thins to every third member, finds a wave for
    the pattern without 1 and 2, and inserts a profile-picked pair plus one
    three-step successor.  Requires the values 1 and 2 at non-adjacent
    positions of the pattern.  When 2 precedes 1 the procedure runs on the
    mirrored set with the reversed pattern and the witness is mirrored back.
    """
    p1 = pi.position(1)
    p2 = pi.position(2)
    if abs(p1 - p2) < 2:
        raise ValueError("values 1 and 2 occupy adjacent positions")
    if len(s) < 4:
        raise ValueError("extraction needs at least 4 elements")
    return _extract(s, pi, "strong", 3, 3, {1, 2}, _insert_pair_and_step, p2 < p1)
