import pytest

from helpers import coloring_wave_free, naive_is_wave, oracle_least_wave
from wavelab import (
    Coloring,
    ExtractionFailure,
    IntSet,
    Permutation,
    direct_difference,
    exact_P,
    extract_wave_main,
    extract_wave_strong,
    ezconst_coloring,
    is_pi_wave,
    product_coloring,
    product_decompose,
    profile_pick,
    reverse,
    verify_coloring_wave_free,
)


def P(text):
    return Permutation.parse(text)


def full_range(n):
    return IntSet(tuple(range(1, n + 1)), n)


def _dense_set(seed, n):
    import random

    rng = random.Random(seed)
    return IntSet(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(n * 4 // 5, n)))), n)


class TestProfilePick:
    @pytest.mark.parametrize(
        "triple,expected",
        [((1, 2, 10), 1), ((1, 9, 10), 2), ((1, 5, 9), 1)],
    )
    def test_examples(self, triple, expected):
        assert profile_pick(*triple) == expected

    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            profile_pick(1, 1, 5)

    def test_picked_gap_fits_half_span(self):
        for a in range(1, 8):
            for b in range(a + 1, 14):
                for c in range(b + 1, 20):
                    i = profile_pick(a, b, c)
                    pair = (a, b) if i == 1 else (b, c)
                    assert 2 * (pair[1] - pair[0]) <= c - a


class TestVerifyColoring:
    def test_examples(self):
        assert verify_coloring_wave_free(Coloring((1, 1, 1, 2, 2, 2, 1), 2), P("2,1"))
        assert not verify_coloring_wave_free(Coloring.constant(4), P("2,1"))
        rainbow = Coloring((1, 2, 3, 4, 5), 5)
        assert verify_coloring_wave_free(rainbow, P("3,2,1"))
        assert verify_coloring_wave_free(rainbow, P("1,2"), "weak")

    def test_agrees_with_oracle(self):
        import itertools

        for colors in itertools.product((1, 2), repeat=6):
            c = Coloring(colors, 2)
            for pat in ("2,1", "1,2"):
                for weak in (False, True):
                    mode = "weak" if weak else "strict"
                    assert verify_coloring_wave_free(c, P(pat), mode) == (
                        coloring_wave_free(colors, P(pat), weak)
                    )


class TestEzconst:
    def test_desk_fixture(self):
        out = ezconst_coloring(P("2,1"), Coloring.constant(3), Coloring.constant(1))
        assert out.assignment == (1, 1, 1, 2, 2, 2, 1)
        assert out.palette == 2
        assert coloring_wave_free(out.assignment, P("2,1"))

    def test_requires_leading_maximum(self):
        with pytest.raises(ValueError, match="largest value"):
            ezconst_coloring(P("1,2"), Coloring.constant(3), Coloring.constant(1))

    def test_rejects_bad_base_coloring(self):
        with pytest.raises(ValueError, match="monochromatic"):
            ezconst_coloring(P("2,1"), Coloring.constant(4), Coloring.constant(1))

    def test_rejects_mismatched_palettes(self):
        with pytest.raises(ValueError, match="palette"):
            ezconst_coloring(
                P("2,1"), Coloring.constant(3), Coloring.constant(1, palette=2)
            )

    def test_weak_mode(self):
        out = ezconst_coloring(
            P("2,1"), Coloring.constant(2), Coloring.constant(1), mode="weak"
        )
        assert out.assignment == (1, 1, 2, 2, 1)
        assert coloring_wave_free(out.assignment, P("2,1"), weak=True)

    def test_size_law(self):
        c0 = exact_P(P("2,1"), 1).extremal
        c0p = exact_P(P("1"), 1).extremal
        out = ezconst_coloring(P("2,1"), c0, c0p)
        assert out.domain_size == 2 * c0.domain_size + c0p.domain_size
        assert out.palette == 2 * c0.palette

    def test_longer_pattern(self):
        c0 = exact_P(P("3,1,2"), 1).extremal
        c0p = exact_P(P("1,2"), 1).extremal
        out = ezconst_coloring(P("3,1,2"), c0, c0p)
        assert verify_coloring_wave_free(out, P("3,1,2"))


class TestProductColoring:
    def test_decompose_examples(self):
        assert product_decompose(17, 3, 10) == (2, 4, 1)
        assert product_decompose(1, 3, 10) == (1, 1, 1)

    def test_decompose_rejects_bad_divisor(self):
        with pytest.raises(ValueError, match="divisible by 5"):
            product_decompose(1, 3, 7)

    def test_decompose_bijective(self):
        m_l, m_r = 3, 10
        seen = set()
        for x in range(1, m_l * m_r + 1):
            a, b, c = product_decompose(x, m_l, m_r)
            assert 1 <= a <= m_l and 1 <= b <= 5 and 1 <= c <= m_r // 5
            assert m_r * (a - 1) + (m_r // 5) * (b - 1) + c == x
            seen.add((a, b, c))
        assert len(seen) == m_l * m_r

    def test_rejects_indivisible_right_domain(self):
        good = exact_P(P("2,1"), 2, "weak").extremal
        with pytest.raises(ValueError, match="divisible by 5"):
            product_coloring(P("2,1"), P("2,1"), 2, good, good.restricted(4))

    def test_rejects_wavey_input(self):
        # an all-one coloring of [3] has the weak descending wave 1,2,3
        bad = Coloring.constant(3, palette=2)
        good = exact_P(P("2,1"), 2, "weak").extremal.restricted(5)
        with pytest.raises(ValueError, match="weak wave"):
            product_coloring(P("2,1"), P("2,1"), 2, bad, good)

    def test_smallest_admissible_desk_instance(self):
        # smallest palette whose extremal weak coloring leaves >= 5 points
        # after restriction to a multiple of 5
        res = exact_P(P("2,1"), 2, "weak")
        c_l = res.extremal
        c_r = res.extremal.restricted(5 * (res.extremal.domain_size // 5))
        out = product_coloring(P("2,1"), P("2,1"), 2, c_l, c_r)
        assert out.domain_size == c_l.domain_size * c_r.domain_size
        assert out.palette == 5 * 2 * 2
        target = direct_difference(P("2,1"), P("2,1"))
        assert target.values == (4, 3, 2, 1)
        assert coloring_wave_free(out.assignment, target, weak=True)


class TestExtractMain:
    def test_trace_fixture(self):
        w, tr = extract_wave_main(full_range(30), P("2,1"))
        assert w.points == (8, 14, 15)
        assert tr.bin_index == 1
        assert tr.residue_class == 2
        assert tr.residue_members == (8, 14, 20, 26)
        assert tr.inner_wave == (8, 14)
        assert tr.lifted == (8, 14)
        assert tr.inserted == (15,)
        assert tr.final.points == (8, 14, 15)

    def test_bins_respect_gap_ranges(self):
        import random

        rng = random.Random(3)
        s = IntSet(tuple(sorted(rng.sample(range(1, 200), 90))), 200)
        _, tr = extract_wave_main(s, P("2,1"))
        for j, members in tr.bins:
            for x in members:
                gap = s.successor(x) - x
                assert 2 ** (j - 1) <= gap < 2**j

    def test_too_small_set_fails_at_inner_wave(self):
        with pytest.raises(ExtractionFailure) as exc:
            extract_wave_main(IntSet((1, 2), 2), P("2,1"))
        assert exc.value.step == "inner-wave"

    def test_wave_free_set_fails(self):
        s = IntSet((1, 2, 4, 8), 8)
        assert oracle_least_wave(s.elements, P("2,1")) is None
        with pytest.raises(ExtractionFailure) as exc:
            extract_wave_main(s, P("2,1"))
        assert exc.value.step == "inner-wave"

    def test_preconditions(self):
        with pytest.raises(ValueError):
            extract_wave_main(full_range(30), P("1"))
        with pytest.raises(ValueError):
            extract_wave_main(IntSet((3,), 5), P("2,1"))

    def test_random_dense_sets_succeed_and_verify(self):
        import random

        rng = random.Random(7)
        for pat in ("2,1", "3,2,1", "2,3,1"):
            pi = P(pat)
            for _ in range(20):
                n = rng.choice((64, 96, 128))
                size = rng.randint(n * 3 // 4, n)
                els = tuple(sorted(rng.sample(range(1, n + 1), size)))
                try:
                    w, _ = extract_wave_main(IntSet(els, n), pi)
                except ExtractionFailure:
                    continue  # sparse corner; the guarantee is tested at threshold
                assert naive_is_wave(w.points, pi)

    def test_render_mentions_steps(self):
        _, tr = extract_wave_main(full_range(30), P("2,1"))
        text = tr.render()
        assert "chosen class s = 1" in text
        assert "final wave: 8,14,15" in text


class TestExtractStrong:
    def test_fixture_1423_on_200(self):
        w, tr = extract_wave_strong(full_range(200), P("1,4,2,3"))
        # pinned from the first verified run; every field re-verifies below
        assert w.points == (15, 16, 39, 42, 51)
        assert is_pi_wave(w.points, P("1,4,2,3"))
        assert not tr.reflected
        assert tr.inserted == (15, 16, 42)

    def test_adjacent_values_rejected(self):
        with pytest.raises(ValueError, match="adjacent"):
            extract_wave_strong(full_range(30), P("1,2"))
        with pytest.raises(ValueError, match="adjacent"):
            extract_wave_strong(full_range(30), P("2,1,3"))

    def test_needs_four_elements(self):
        with pytest.raises(ValueError):
            extract_wave_strong(IntSet((1, 2, 5), 5), P("1,3,2"))

    def test_reflected_run_produces_wave_for_original(self):
        w, tr = extract_wave_strong(full_range(200), P("2,4,1,3"))
        assert tr.reflected
        assert is_pi_wave(w.points, P("2,4,1,3"))

    @pytest.mark.parametrize("s", [full_range(200), _dense_set(5, 256)], ids=["range", "dense"])
    def test_reflected_trace_is_the_mirror_run(self, s):
        pi = P("2,4,1,3")
        w, tr = extract_wave_strong(s, pi)
        mw, mtr = extract_wave_strong(s.reflected(), reverse(pi))
        assert tr.reflected and not mtr.reflected
        mirror_space = ("variant", "universe", "bin_index", "bins", "thinned", "residue_class",
                        "residue_members", "inner_wave", "lifted", "inserted")
        for field in mirror_space:
            assert getattr(tr, field) == getattr(mtr, field), field
        n = s.universe
        assert tr.final == w
        assert w.points == tuple(n + 1 - p for p in reversed(mw.points))

    def test_random_dense_sets_succeed_and_verify(self):
        import random

        rng = random.Random(11)
        for pat in ("1,3,2", "1,4,2,3", "3,1,4,2"):
            pi = P(pat)
            for _ in range(15):
                n = rng.choice((128, 192, 256))
                size = rng.randint(n * 4 // 5, n)
                els = tuple(sorted(rng.sample(range(1, n + 1), size)))
                try:
                    w, _ = extract_wave_strong(IntSet(els, n), pi)
                except ExtractionFailure:
                    continue
                assert naive_is_wave(w.points, pi)
