import itertools

import pytest
from hypothesis import given, settings, strategies as st

from helpers import S2, S3, naive_is_wave, oracle_least_wave, wave_list
from wavelab import (
    IntSet,
    Permutation,
    WaveWitness,
    differences,
    find_wave,
    is_pi_wave,
    is_weak_pi_wave,
    prefix_feasible,
    reverse,
)


def P(text):
    return Permutation.parse(text)


small_pattern = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.permutations(list(range(1, k + 1)))
).map(lambda vals: Permutation(tuple(vals)))
pattern_to_5 = st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.permutations(list(range(1, k + 1)))
).map(lambda vals: Permutation(tuple(vals)))

point_lists = st.lists(st.integers(1, 60), min_size=1, max_size=6)


class TestIntSet:
    def test_parse_and_str(self):
        s = IntSet.parse("8,1,2,4")
        assert s.elements == (1, 2, 4, 8) and s.universe == 8
        assert str(s) == "1,2,4,8"

    def test_invariants(self):
        with pytest.raises(ValueError):
            IntSet((2, 1), 4)
        with pytest.raises(ValueError):
            IntSet((0, 1), 4)
        with pytest.raises(ValueError):
            IntSet((1, 5), 4)
        with pytest.raises(ValueError):
            IntSet((1,), 0)

    def test_membership_and_successor(self):
        s = IntSet((1, 2, 4, 8), 8)
        assert 4 in s and 5 not in s and 0 not in s and 9 not in s
        assert s.successor(2) == 4 and s.successor(8) is None

    def test_membership_in_large_universe(self):
        n = 2**20 + 10
        s = IntSet((5, n), n)
        assert 5 in s and n in s and 6 not in s

    def test_reflected(self):
        s = IntSet((1, 2, 4, 8), 10)
        assert s.reflected().elements == (3, 7, 9, 10)
        assert s.reflected().reflected() == s


class TestDifferences:
    @pytest.mark.parametrize(
        "pts,expected",
        [((1, 3, 4), (2, 1)), ((1, 2, 6, 9), (1, 4, 3)), ((5, 6), (1,))],
    )
    def test_examples(self, pts, expected):
        assert differences(pts) == expected

    def test_errors(self):
        with pytest.raises(ValueError):
            differences((3, 3))
        with pytest.raises(ValueError):
            differences((5,))


class TestPredicates:
    @pytest.mark.parametrize(
        "pts,pat,expected",
        [
            ((1, 3, 4), "2,1", True),
            ((1, 2, 3), "1,2", False),
            ((1, 2, 6, 9), "1,3,2", True),
        ],
    )
    def test_strict_examples(self, pts, pat, expected):
        assert is_pi_wave(pts, P(pat)) is expected

    @pytest.mark.parametrize(
        "pts,pat,expected",
        [
            ((1, 2, 3), "2,1", True),
            ((1, 2, 4), "2,1", False),
            ((1, 3, 4), "2,1", True),
        ],
    )
    def test_weak_examples(self, pts, pat, expected):
        assert is_weak_pi_wave(pts, P(pat)) is expected

    def test_total_on_malformed(self):
        pi = P("2,1")
        assert not is_pi_wave((3, 2, 1), pi)
        assert not is_pi_wave((1, 2), pi)
        assert not is_weak_pi_wave((1, 1, 2), pi)

    @given(point_lists, small_pattern)
    def test_matches_definition_literal_predicate(self, pts, pi):
        pts = tuple(pts)
        assert is_pi_wave(pts, pi) == naive_is_wave(pts, pi)
        assert is_weak_pi_wave(pts, pi) == naive_is_wave(pts, pi, weak=True)

    @given(point_lists, small_pattern)
    def test_strict_implies_weak(self, pts, pi):
        if is_pi_wave(tuple(pts), pi):
            assert is_weak_pi_wave(tuple(pts), pi)


class TestPrefixFeasible:
    def test_examples(self):
        pi = P("2,1,3")
        assert prefix_feasible((1, 3, 4), pi)
        assert not prefix_feasible((1, 2, 4), pi)
        assert prefix_feasible((5,), P("3,1,2"))

    def test_every_wave_prefix_is_feasible(self):
        pi = P("1,3,2")
        for pts, _ in wave_list(12, pi):
            for t in range(1, len(pts) + 1):
                assert prefix_feasible(pts[:t], pi)


class TestGapRuleExhaustive:
    @staticmethod
    def literal(pts, vals, weak):
        # the definition read pairwise, on however many gaps pts has so far
        if not pts or len(pts) > len(vals) + 1:
            return False
        if any(a >= b for a, b in zip(pts, pts[1:])):
            return False
        d = [b - a for a, b in zip(pts, pts[1:])]
        for i, j in itertools.permutations(range(len(d)), 2):
            if weak:
                if vals[i] > vals[j] and d[i] < d[j]:
                    return False
            elif (d[i] > d[j]) != (vals[i] > vals[j]):
                return False
        return True

    def test_predicates_match_pairwise_definition(self):
        # patterns of length <= 3 on every tuple over [1, 9] up to one point
        # too long, malformed ones included; length 4 on the increasing ones
        points = range(1, 10)
        for k in (1, 2, 3, 4):
            if k <= 3:
                tuples = [t for m in range(k + 3) for t in itertools.product(points, repeat=m)]
            else:
                tuples = [t for m in range(k + 3) for t in itertools.combinations(points, m)]
            for vals in itertools.permutations(range(1, k + 1)):
                pi = Permutation(vals)
                for pts in tuples:
                    strict = self.literal(pts, vals, False)
                    weak = self.literal(pts, vals, True)
                    full = len(pts) == k + 1
                    got = (
                        prefix_feasible(pts, pi, "strict"),
                        prefix_feasible(pts, pi, "weak"),
                        is_pi_wave(pts, pi),
                        is_weak_pi_wave(pts, pi),
                    )
                    assert got == (strict, weak, strict and full, weak and full), (vals, pts)


class TestWaveWitness:
    def test_validates_on_construction(self):
        WaveWitness(P("2,1"), (1, 3, 4))
        with pytest.raises(ValueError):
            WaveWitness(P("2,1"), (1, 2, 3))
        WaveWitness(P("2,1"), (1, 2, 3), mode="weak")


class TestFindWave:
    def test_examples(self):
        assert find_wave(IntSet((1, 2, 4, 8), 8), P("2,1")) is None
        got = find_wave(IntSet((1, 3, 4), 4), P("2,1"))
        assert got is not None and got.points == (1, 3, 4)
        weak = find_wave(IntSet((1, 2, 3), 3), P("2,1"), "weak")
        assert weak is not None and weak.points == (1, 2, 3)

    def test_agrees_with_oracle_small_exhaustive(self):
        # every S inside [9], both modes; the [12] run is in the acceptance suite
        n = 9
        for pi in S2 + S3:
            for weak in (False, True):
                mode = "weak" if weak else "strict"
                waves = wave_list(n, pi, weak)
                for mask in range(1, 1 << n):
                    els = tuple(i + 1 for i in range(n) if mask >> i & 1)
                    smask = mask << 1
                    expected = next(
                        (pts for pts, wmask in waves if wmask & smask == wmask), None
                    )
                    got = find_wave(IntSet(els, n), pi, mode)
                    assert (None if got is None else got.points) == expected

    def test_strict_witness_implies_weak_witness(self):
        for pi in S3:
            for mask in range(1, 1 << 10, 5):
                els = tuple(i + 1 for i in range(10) if mask >> i & 1)
                s = IntSet(els, 10)
                if find_wave(s, pi) is not None:
                    assert find_wave(s, pi, "weak") is not None

    def test_reversal_mirror_exhaustive(self):
        # S holds a wave for pi  iff  the mirrored set holds one for reverse(pi)
        n = 12
        for pi in S2 + S3:
            fwd = wave_list(n, pi)
            bwd = wave_list(n, reverse(pi))
            for mask in range(1, 1 << n):
                smask = mask << 1
                rmask = 0
                for i in range(n):
                    if mask >> i & 1:
                        rmask |= 1 << (n - 1 - i)
                rmask <<= 1
                has_fwd = any(w & smask == w for _, w in fwd)
                has_bwd = any(w & rmask == w for _, w in bwd)
                assert has_fwd == has_bwd

    @given(
        st.sets(st.integers(1, 30), min_size=1, max_size=12),
        small_pattern,
        st.booleans(),
    )
    @settings(max_examples=150)
    def test_witness_soundness(self, els, pi, weak):
        mode = "weak" if weak else "strict"
        s = IntSet(tuple(sorted(els)), 30)
        got = find_wave(s, pi, mode)
        if got is not None:
            assert all(p in s for p in got.points)
            assert naive_is_wave(got.points, pi, weak)
            assert got.points == oracle_least_wave(s.elements, pi, weak)

    @given(
        st.sets(st.integers(1, 40), min_size=1, max_size=14),
        pattern_to_5,
        st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_interval_steps_match_oracle(self, els, pi, weak):
        # the least wave over wide gaps, where each level's interval decides
        s = IntSet(tuple(sorted(els)), 40)
        got = find_wave(s, pi, "weak" if weak else "strict")
        assert (None if got is None else got.points) == oracle_least_wave(
            s.elements, pi, weak
        )
