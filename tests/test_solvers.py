import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from helpers import S2, S3, all_patterns, naive_is_wave, oracle_g, oracle_p
from wavelab import Coloring, Permutation, exact_P, exact_g, recursive_upper_bound_g, reverse
from wavelab.solvers import _Budget, _GEngine, _prefix_completions, _reset_caches


def P(text):
    return Permutation.parse(text)


class TestExactG:
    def test_examples(self):
        res = exact_g(P("2,1"), 8)
        assert res.value == 4 and res.status == "exact"
        assert res.witness.elements == (1, 2, 3, 5)  # lex-least optimum
        assert exact_g(P("1,2"), 8).value == 4
        assert exact_g(P("2,1"), 2).value == 2
        assert exact_g(P("1"), 5).value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_g(P("2,1"), 0)
        with pytest.raises(ValueError):
            exact_g(P("2,1"), 5, "loose")

    def test_agrees_with_enumeration_oracle(self):
        for pi in S2 + S3:
            for weak in (False, True):
                mode = "weak" if weak else "strict"
                for n in range(1, 13):
                    want_val, want_set = oracle_g(pi, n, weak)
                    res = exact_g(pi, n, mode)
                    assert (res.value, res.witness.elements) == (want_val, want_set), (
                        pi,
                        n,
                        mode,
                    )

    def test_witness_is_wave_free_and_sized(self):
        for pi in S3:
            res = exact_g(pi, 20)
            assert len(res.witness) == res.value
            from wavelab import find_wave

            assert find_wave(res.witness, pi) is None

    def test_monotone_in_n(self):
        for pi in S2 + S3:
            prev = 0
            for n in range(1, 31):
                v = exact_g(pi, n).value
                assert prev <= v <= prev + 1
                prev = v

    def test_reversal_symmetry(self):
        for pi in S3:
            for n in range(1, 31):
                assert exact_g(pi, n).value == exact_g(reverse(pi), n).value

    def test_weak_at_most_strict(self):
        for pi in S2 + S3:
            for n in range(1, 16):
                assert exact_g(pi, n, "weak").value <= exact_g(pi, n).value

    def test_descending_closed_form_small(self):
        for n in range(3, 65):
            assert exact_g(P("2,1"), n).value == math.floor(math.log2(n - 1)) + 2

    def test_length_two_patterns_beyond_table_cap(self):
        # large universes with the doubling-span bounds
        from wavelab import find_wave

        for n in (100, 200):
            up = exact_g(P("2,1"), n)
            down = exact_g(P("1,2"), n)
            assert up.value == down.value == math.floor(math.log2(n - 1)) + 2
            assert len(down.witness) == down.value
            assert find_wave(down.witness, P("1,2")) is None

    def test_longer_patterns_against_oracle_sampled(self):
        import random

        rng = random.Random(99)
        for k in (4, 5):
            pats = [p.values for p in all_patterns(k)]
            rng.shuffle(pats)
            for vals in pats[:4]:
                pi = Permutation(vals)
                for weak in (False, True):
                    mode = "weak" if weak else "strict"
                    want = oracle_g(pi, 11, weak)
                    got = exact_g(pi, 11, mode)
                    assert (got.value, got.witness.elements) == want, (vals, mode)

    def test_concurrent_calls_are_deterministic(self):
        import threading

        results = {}

        def work(tag):
            r = exact_g(P("2,3,1"), 26)
            results[tag] = (r.value, r.witness.elements)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results.values())) == 1

    # Lex-least optimal witnesses for n = 1, 2, ..., recorded from the engine
    # that filtered with a precomputed wave table up to universe 64 and with
    # pinned completion search beyond it.
    SEED_WITNESSES = {
        (2, 1): ["1", "1,2", "1,2,3", "1,2,3"] + ["1,2,3,5"] * 4 + ["1,2,3,5,9"] * 8
        + ["1,2,3,5,9,17"] * 14,
        (1, 2): ["1", "1,2", "1,2,3", "1,2,3"] + ["1,3,4,5"] * 4 + ["1,5,7,8,9"] * 8
        + ["1,9,13,15,16,17"] * 14,
        (3, 2, 1): ["1", "1,2", "1,2,3", "1,2,3,4", "1,2,3,4,5"] + ["1,2,3,4,5,6"] * 2
        + ["1,2,3,4,5,6,8"] * 3 + ["1,2,3,4,5,6,8,11"] * 2
        + ["1,2,3,4,5,6,11,12,13", "1,2,3,4,5,6,8,11,14"],
        (1, 3, 2): ["1", "1,2", "1,2,3", "1,2,3,4", "1,2,3,4,5"] + ["1,2,3,4,5,6"] * 2
        + ["1,3,4,5,6,7,8", "1,2,3,4,5,8,9", "1,2,3,4,5,6,10"] + ["1,2,3,4,5,6,10,11"] * 3
        + ["1,3,4,5,6,7,8,13,14"],
    }

    def test_matches_recorded_seed_engine(self):
        for vals, witnesses in self.SEED_WITNESSES.items():
            for n, text in enumerate(witnesses, start=1):
                want = tuple(int(x) for x in text.split(","))
                r = exact_g(Permutation(vals), n)
                assert (r.value, r.witness.elements) == (len(want), want), (vals, n)

    # Values and lex-least witnesses on the plateaus where the translation
    # cuts fire, recorded from the engine that scanned each point's whole
    # kernel table and bounded a suffix by g(n-e) only; with the node total
    # of each ladder solved from n = 1 on a fresh engine, so that a cut
    # switched off shows (node totals re-derived with each step started from
    # g(n-1)'s witness).
    CUT_LADDERS = {
        ((1, 3, 2), "weak"): (
            3175,
            ["1", "1,2"] + ["1,2,3"] * 2 + ["1,2,3,5"] * 3 + ["1,3,4,5,8"]
            + ["1,2,3,5,9"] * 3 + ["1,5,7,8,9,12", "1,4,5,6,8,13"]
            + ["1,3,4,5,8,14"] * 3 + ["1,6,10,13,14,15,17"] * 3
            + ["1,4,7,9,11,19,20"] * 3 + ["1,4,5,6,8,13,23"] * 2
            + ["1,9,14,18,21,22,23,25"] * 3 + ["1,5,9,12,15,26,27,28"],
        ),
        ((2, 4, 1, 3), "strict"): (
            10127,
            [",".join(map(str, range(1, m + 1))) for m in range(1, 10)]
            + ["1,2,3,4,5,6,7,8,9,10"] * 2
            + ["1,2,3,4,5,6,7,9,10,11,12", "1,2,3,4,5,6,7,8,10,12,13",
               "1,2,3,4,5,6,7,8,10,12,13,14"]
            + ["1,2,3,4,5,6,7,8,10,12,13,14,15"] * 2
            + ["1,2,3,4,5,6,7,8,9,14,15,16,17", "1,2,3,4,5,6,7,8,10,13,15,16,17,18"]
            + ["1,2,3,4,5,6,7,8,9,10,16,17,18,19"] * 2
            + ["1,2,3,4,5,6,7,8,9,10,16,18,19,20,21"] * 4,
        ),
    }

    def test_cut_ladders_match_recorded_engine(self):
        for (vals, mode), (nodes, witnesses) in self.CUT_LADDERS.items():
            _reset_caches()
            top = exact_g(Permutation(vals), len(witnesses), mode)
            assert top.nodes == nodes, (vals, mode)
            for n, text in enumerate(witnesses, start=1):
                want = tuple(int(x) for x in text.split(","))
                r = exact_g(Permutation(vals), n, mode)
                assert (r.value, r.witness.elements) == (len(want), want), (vals, mode, n)

    # The length-2 patterns are solved by their closed-form doubling counts:
    # the node total of a fresh engine solving strict n = 1..256, recorded
    # from the engine that counted the 2,1 doublings one step at a time and
    # capped the 1,2 chain with the gaps of every chosen pair (1,2 re-derived
    # with each step started from g(n-1)'s witness).
    # The 1,2 total also pins the cut of a branch that has lost n: these
    # patterns run no look-ahead, and without that cut 797 rises to 2,076.
    # With the look-ahead that cut never fires, so no other pin covers it.
    LENGTH_TWO_NODES = {(2, 1): 2049, (1, 2): 797}

    def test_length_two_ladders_match_recorded_engine(self):
        for vals, nodes in self.LENGTH_TWO_NODES.items():
            _reset_caches()
            assert exact_g(Permutation(vals), 256).nodes == nodes, vals
            for n in range(2, 257):
                r = exact_g(Permutation(vals), n)
                assert r.value == math.floor(math.log2(n - 1)) + 2, (vals, n)

    # 1,3,2 strict for n = 40..48, past bench/reference.json: values and
    # lex-least witnesses recorded from the engine without the anchored
    # look-ahead, and the node total of a fresh engine solving up to 48,
    # which the look-ahead cut from 1,367,186 to 384,411 and starting each
    # step from g(n-1)'s witness cuts further.
    LOOKAHEAD_LADDER = (
        68721,
        ["1,4,5,6,7,8,11,12,20,21,38,39"] + ["1,2,3,4,5,6,10,11,20,21,40,41"] * 5
        + ["1,9,12,14,15,16,17,18,19,26,27,45,46"] * 2
        + ["1,5,6,7,8,9,10,14,15,25,26,47,48"],
    )

    def test_lookahead_ladder_matches_recorded_engine(self):
        nodes, witnesses = self.LOOKAHEAD_LADDER
        _reset_caches()
        assert exact_g(P("1,3,2"), 48).nodes == nodes
        for n, text in enumerate(witnesses, start=40):
            want = tuple(int(x) for x in text.split(","))
            r = exact_g(P("1,3,2"), n)
            assert (r.value, r.witness.elements) == (len(want), want), n

    def test_single_point_pattern(self):
        # every pair is a 1-wave; the empty prefix's completions are always live
        for mode in ("strict", "weak"):
            for n in range(1, 13):
                r = exact_g(P("1"), n, mode)
                assert (r.value, r.witness.elements, r.status) == (1, (1,), "exact"), (mode, n)

    def test_single_point_pattern_builds_one_table(self):
        # k = 1 runs no look-ahead (the empty prefix's group key is the point
        # itself, so it would find nothing), and each step includes only 1
        engine = _GEngine(P("1"), "strict")
        engine.ensure(2000, _Budget(10**8))
        assert engine.g[2000] == 1 and list(engine.tables) == [1]

    # Results cut short by a budget on a fresh engine: the node at which the
    # budget runs out fixes the best set, so they pin the order of the nodes,
    # which the ladder totals cannot see.
    BUDGETED = [
        ("1,3,2", "strict", 40, 10**4, "1,4,6,7,8,9,10,11,18,19,34,35"),
        ("1,2,3", "strict", 40, 100, "1,3,4,5,10,11,12,13,14,15"),
        ("1,3,2", "weak", 28, 100, "1,5,7,8,9,12"),
        ("2,4,1,3", "strict", 30, 1000, "1,2,3,4,5,6,7,8,9,10,16,17,18,19"),
        ("1,2", "strict", 300, 100, "1,9,13,15,16,17"),
        ("1,2", "strict", 300, 600, "1,65,97,113,121,125,127,128,129"),
        ("1,2", "strict", 1000, 1500, "1,129,193,225,241,249,253,255,256,257"),
        ("1,2", "strict", 2000, 3000, "1,257,385,449,481,497,505,509,511,512,513"),
    ]

    def test_budgeted_results_match_recorded_engine(self):
        for pat, mode, n, budget, text in self.BUDGETED:
            _reset_caches()
            r = exact_g(P(pat), n, mode, node_budget=budget)
            want = tuple(int(x) for x in text.split(","))
            got = (r.value, r.witness.elements, r.status, r.nodes)
            assert got == (len(want), want, "lower-bound", budget), (pat, mode, n)

    def test_length_two_closed_form_across_64(self):
        for pat in ("2,1", "1,2"):
            for n in range(60, 101):
                assert exact_g(P(pat), n).value == math.floor(math.log2(n - 1)) + 2, (pat, n)

    def test_budget_exhaustion_degrades_gracefully(self):
        from wavelab import find_wave

        pi = P("2,1,4,3")  # pattern no other test warms up
        res = exact_g(pi, 25, node_budget=10)
        assert res.status == "lower-bound" and res.nodes == 10
        assert res.value == len(res.witness)
        if len(res.witness):
            assert find_wave(res.witness, pi) is None
        # the aborted run is never cached and a full retry certifies
        full = exact_g(pi, 25)
        assert full.status == "exact" and full.value >= res.value


class TestNodeBudget:
    def test_negative_budget_is_refused(self):
        for solve, param in ((exact_g, 5), (exact_P, 2)):
            for budget in (-1, -5):
                with pytest.raises(ValueError, match="node budget must be >= 0"):
                    solve(P("2,1"), param, node_budget=budget)
        # a budget of 0 still means no new nodes: a step not yet solved stops at once
        _reset_caches()
        res = exact_g(P("3,1,2"), 4, node_budget=0)
        assert (res.status, res.value, res.witness.elements, res.nodes) == ("lower-bound", 0, (), 0)
        assert exact_P(P("3,1,2"), 2, node_budget=0).status == "lower-bound"
        # and answers from what the process has already solved
        exact_g(P("3,1,2"), 4)
        assert exact_g(P("3,1,2"), 4, node_budget=0).status == "exact"


class TestExactP:
    def test_pigeonhole_family(self):
        one = P("1")
        for r in range(1, 9):
            res = exact_P(one, r)
            assert res.value == r + 1 and res.status == "exact"
            assert res.extremal.domain_size == r
        # full-enumeration oracle for the small ones
        for r in range(1, 4):
            assert oracle_p(one, r) == r + 1

    def test_descending_pair_values(self):
        assert exact_P(P("2,1"), 1).value == 4
        assert oracle_p(P("2,1"), 1) == 4
        assert exact_P(P("2,1"), 2).value == 9
        assert oracle_p(P("2,1"), 2) == 9
        # pinned by the exhaustive backtracking oracle ahead of the build
        assert exact_P(P("2,1"), 3).value == 15

    def test_weak_values(self):
        assert exact_P(P("2,1"), 1, "weak").value == 3
        assert exact_P(P("2,1"), 2, "weak").value == 7
        assert oracle_p(P("2,1"), 2, weak=True) == 7
        assert exact_P(P("2,1"), 3, "weak").value == 11

    def test_reversal_symmetry(self):
        for r in (1, 2):
            for mode in ("strict", "weak"):
                assert (
                    exact_P(P("1,2"), r, mode).value
                    == exact_P(P("2,1"), r, mode).value
                )

    def test_extremal_coloring_verifies(self):
        from wavelab import verify_coloring_wave_free

        res = exact_P(P("2,1"), 2)
        assert res.extremal.domain_size == res.value - 1
        assert verify_coloring_wave_free(res.extremal, P("2,1"))

    def test_recursive_inequality_at_exact_values(self):
        # p-hat(pi, 2r) >= 2 p-hat(pi, r) + p-hat(reduced, r) for pi starting
        # with its maximum; strict and weak desk instances
        p_hat = lambda pi, r, mode: exact_P(P(pi), r, mode).value - 1
        assert p_hat("2,1", 2, "strict") >= 2 * p_hat("2,1", 1, "strict") + p_hat(
            "1", 1, "strict"
        )
        assert p_hat("2,1", 2, "weak") >= 2 * p_hat("2,1", 1, "weak") + p_hat(
            "1", 1, "weak"
        )

    def test_budget_exhaustion_degrades_gracefully(self):
        res = exact_P(P("2,1"), 3, node_budget=40)
        assert res.status == "lower-bound" and res.nodes == 40
        assert res.value == res.extremal.domain_size + 1
        from wavelab import verify_coloring_wave_free

        assert verify_coloring_wave_free(res.extremal, P("2,1"))
        # a deep search spends exactly its budget, however many frames unwind
        deep = exact_P(P("1,3,2"), 3, node_budget=10**4)
        assert deep.status == "lower-bound" and deep.nodes == 10**4

    def test_budget_bounds_long_pattern(self):
        res = exact_P(P("1,2,3,4,5"), 2, node_budget=10**4)
        assert res.status == "lower-bound"
        assert res.value >= 37 and res.nodes <= 10**4

    def test_tables_freed_on_return(self):
        import gc
        import tracemalloc

        import wavelab.solvers

        pi = P("1,3,2")
        exact_P(pi, 1)
        gc.collect()
        gc.disable()
        tracemalloc.start()
        try:
            exact_P(pi, 3, node_budget=10**3)
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
            gc.enable()
        # count only blocks allocated in solvers.py: the interpreter's tuple
        # free lists keep ~130 KB of the wave predicate's tuples whatever
        # exact_P does, and only a full collection empties them
        own = snap.filter_traces([tracemalloc.Filter(True, wavelab.solvers.__file__)])
        assert sum(s.size for s in own.statistics("filename")) < 32 * 1024

    def test_validation(self):
        with pytest.raises(ValueError):
            exact_P(P("2,1"), 0)


class TestPrefixCompletions:
    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda k: st.permutations(list(range(1, k + 1)))
        ),
        st.booleans(),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, vals, weak, e):
        pi = Permutation(tuple(vals))
        k = len(vals)
        top = 2 * e + 2  # every non-empty completion starts at or below 2e
        want = {}
        for ws in itertools.combinations(range(1, e), k - 1):
            mask = 0
            for x in range(e + 1, top + 1):
                if naive_is_wave(ws + (e, x), pi, weak):
                    mask |= 1 << x
            if mask:
                want[sum(1 << w for w in ws)] = mask
        got = _prefix_completions(pi.values, e, not weak)
        # each mask splits at e into the prefix below and its completions above
        below = (1 << e) - 1
        window = (1 << top + 1) - 1
        assert len({mask & below for mask in got}) == len(got)
        assert {mask & below: mask >> e << e & window for mask in got} == want

    def test_tables_stay_small(self):
        import tracemalloc

        # the 1,3,2 frontier ladder of the density benchmark builds these within
        # its 15 s; at about 0.9 MB they leave its peak-memory bound room
        engine = _GEngine(P("1,3,2"), "strict")
        tracemalloc.start()
        try:
            for e in range(1, 61):
                engine._table(e)
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < 1 << 20


class TestRecursiveUpperBound:
    @pytest.mark.parametrize(
        "pat,n,expected",
        [("2,1", 256, 480), ("3,2,1", 256, 115200), ("1,4,2,3", 256, 161280)],
    )
    def test_examples(self, pat, n, expected):
        assert recursive_upper_bound_g(P(pat), n) == expected

    def test_single_value_base(self):
        assert recursive_upper_bound_g(P("1"), 1024) == 2

    def test_needs_n_at_least_two(self):
        with pytest.raises(ValueError):
            recursive_upper_bound_g(P("2,1"), 1)

    def test_dominates_exact_values(self):
        for pi in S3:
            for n in (8, 16, 24):
                assert recursive_upper_bound_g(pi, n) >= exact_g(pi, n).value


class TestColoring:
    def test_parse_and_str(self):
        c = Coloring.parse("1,1,2")
        assert c.assignment == (1, 1, 2) and c.palette == 2
        c2 = Coloring.parse("palette: 4\n1,1,2\n")
        assert c2.palette == 4
        assert str(c2) == "1,1,2"

    def test_validation(self):
        with pytest.raises(ValueError):
            Coloring((1, 3), 2)
        with pytest.raises(ValueError):
            Coloring((1, 0), 2)

    def test_classes_and_restriction(self):
        c = Coloring((1, 1, 1, 2, 2, 2, 1), 2)
        assert c.color_class(1) == (1, 2, 3, 7)
        assert c.restricted(5).assignment == (1, 1, 1, 2, 2)
