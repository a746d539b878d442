import fcntl
import os
import subprocess
import sys
import threading
import time
import warnings

import pytest

import wavelab
import wavelab.store as store_module
from wavelab import (
    Coloring,
    IntSet,
    Permutation,
    Record,
    Store,
    StoreConflictError,
    StoreError,
    exact_P,
    exact_g,
)


def P(text):
    return Permutation.parse(text)


def g_record(pattern="2,1", n=8):
    res = exact_g(P(pattern), n)
    return Record("g", P(pattern), n, "strict", res.value, "exact", res.witness)


class TestRecord:
    def test_round_trips_through_line(self):
        rec = g_record()
        again = Record.from_line(rec.to_line())
        assert again == rec
        again.verify()

    def test_hand_written_line_verifies(self):
        # hand-edited fixtures are acceptable as long as they verify
        rec = Record.from_line("g 2,1 8 strict 4 exact 1,2,4,8")
        rec.verify()
        assert rec.witness == IntSet((1, 2, 4, 8), 8)
        # a witness is read in any order
        assert Record.from_line("g 2,1 8 strict 4 exact 8,4,2,1") == rec

    def test_coloring_record(self):
        res = exact_P(P("1"), 3)
        rec = Record("p", P("1"), 3, "strict", res.value, "exact", res.extremal)
        rec.verify()
        assert Record.from_line(rec.to_line()) == rec

    def test_verify_rejects_wrong_size(self):
        rec = Record("g", P("2,1"), 8, "strict", 5, "exact", IntSet((1, 2, 4, 8), 8))
        with pytest.raises(StoreError, match="size"):
            rec.verify()

    def test_verify_rejects_wave(self):
        rec = Record("g", P("2,1"), 8, "strict", 3, "exact", IntSet((1, 3, 4), 8))
        with pytest.raises(StoreError, match="wave"):
            rec.verify()

    def test_bad_kind_and_status(self):
        with pytest.raises(ValueError):
            Record("q", P("2,1"), 8, "strict", 4, "exact", IntSet((1,), 8))
        with pytest.raises(ValueError):
            Record("g", P("2,1"), 8, "strict", 4, "guess", IntSet((1,), 8))


class TestStore:
    def test_put_get_round_trip(self, tmp_path):
        path = tmp_path / "cache.txt"
        store = Store(path)
        rec = g_record()
        store.put(rec)
        assert store.get("g", P("2,1"), 8, "strict") == rec
        # survives restart
        assert Store(path).get("g", P("2,1"), 8, "strict") == rec

    def test_missing_key_and_no_symmetry_fill(self, tmp_path):
        store = Store(tmp_path / "cache.txt")
        store.put(g_record("2,1", 8))
        assert store.get("g", P("2,1"), 9, "strict") is None
        assert store.get("g", P("1,2"), 8, "strict") is None

    def test_conflicting_exact_rejected(self, tmp_path):
        store = Store(tmp_path / "cache.txt")
        store.put(g_record())
        clash = Record(
            "g", P("2,1"), 8, "strict", 3, "exact", IntSet((1, 2, 4), 8)
        )
        with pytest.raises(StoreConflictError):
            store.put(clash)
        # the rejected record reached neither the file nor the index
        assert len((tmp_path / "cache.txt").read_text().splitlines()) == 1
        assert store.get("g", P("2,1"), 8, "strict").value == 4

    def test_failed_append_is_not_served(self, tmp_path):
        store = Store(tmp_path / "missing-dir" / "cache.txt")
        with pytest.raises(FileNotFoundError):
            store.put(g_record())
        assert store.get("g", P("2,1"), 8, "strict") is None

    def test_identical_exact_reput_is_noop(self, tmp_path):
        path = tmp_path / "cache.txt"
        store = Store(path)
        store.put(g_record())
        store.put(g_record())
        assert len(path.read_text().splitlines()) == 1

    def test_put_refuses_lower_bound(self, tmp_path):
        path = tmp_path / "cache.txt"
        store = Store(path)
        lb = Record("g", P("2,1"), 8, "strict", 3, "lower-bound", IntSet((1, 2, 4), 8))
        with pytest.raises(StoreError, match="exact records only"):
            store.put(lb)
        assert not path.exists()
        assert store.get("g", P("2,1"), 8, "strict") is None

    def test_lower_bound_lines_are_never_served(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(
            "g 2,1 8 strict 3 lower-bound 1,2,4\n"
            "g 2,1 8 strict 4 exact 1,2,4,8\n"
            "g 2,1 8 strict 2 lower-bound 1,2\n"
            "g 2,1 9 strict 4 lower-bound 1,2,4,8\n"
        )
        store = Store(path)
        assert store.get("g", P("2,1"), 8, "strict") == Record.from_line(
            "g 2,1 8 strict 4 exact 1,2,4,8"
        )
        assert store.get("g", P("2,1"), 9, "strict") is None

    def test_load_rejects_lower_bound_with_wave(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(
            "g 2,1 8 strict 4 exact 1,2,4,8\n"
            "g 2,1 8 strict 3 lower-bound 1,3,4\n"
        )
        with pytest.raises(StoreError, match=r"cache.txt:2: .*wave"):
            Store(path)

    @pytest.mark.parametrize(
        "line,field",
        [
            ("q 2,1 8 strict 4 exact 1,2,4,8", "kind must be 'g' or 'p', got 'q'"),
            ("g 2,1 8 strict 4 guess 1,2,4,8", "status must be 'exact' or 'lower-bound'"),
            ("g 2,1 8 loose 4 exact 1,2,4,8", "mode must be 'strict' or 'weak', got 'loose'"),
        ],
    )
    def test_load_names_the_bad_field(self, tmp_path, line, field):
        path = tmp_path / "cache.txt"
        path.write_text("g 2,1 8 strict 4 exact 1,2,4,8\n" + line + "\n")
        with pytest.raises(StoreError, match=r"cache.txt:2: bad record .*: " + field) as info:
            Store(path)
        assert "witness" not in str(info.value)

    def test_load_rejects_corrupt_witness(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("g 2,1 8 strict 3 exact 1,3,4\n")
        with pytest.raises(StoreError, match="wave"):
            Store(path)

    def test_load_rejects_malformed_line(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("g 2,1 8 strict 4\n")
        with pytest.raises(StoreError, match="fields"):
            Store(path)

    def test_load_rejects_conflicting_file(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(
            "g 2,1 8 strict 4 exact 1,2,4,8\n"
            "g 2,1 8 strict 3 exact 1,2,4\n"
        )
        with pytest.raises(StoreConflictError):
            Store(path)

    def test_repeated_exact_line_loads_once(self, tmp_path):
        path = tmp_path / "cache.txt"
        line = "g 2,1 8 strict 4 exact 1,2,4,8\n"
        path.write_text(line * 2)
        store = Store(path)
        assert store.get("g", P("2,1"), 8, "strict") == Record.from_line(line)
        store.put(Record.from_line(line))
        assert path.read_text() == line * 2

    def test_load_parses_each_pattern_text_once(self, tmp_path, monkeypatch):
        texts = ["1", "1,2", "2,1", "1,3,2", "2,3,1", "3,1,2", "2,4,1,3"]
        path = tmp_path / "cache.txt"
        store = Store(path)
        for text in texts:
            for n in range(1, 13):
                store.put(g_record(text, n))
        pi = P("2,4,1,3")
        parsed = []
        parse = Permutation.parse

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(Permutation, "parse", staticmethod(counting_parse))
        assert Store(path).get("g", pi, 12, "strict").value == 11
        # 84 lines, 7 pattern texts
        assert len(parsed) == len(set(parsed)) <= len(texts)

    def test_blank_lines_and_comments_skipped(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text("# cache\n\ng 2,1 8 strict 4 exact 1,2,4,8\n")
        assert Store(path).get("g", P("2,1"), 8, "strict").value == 4


class TestTornTail:
    """An unterminated last line is a torn write: skipped on load, cut off by put."""

    TORN = "g 2,1 9 strict 5 ex"

    def test_load_skips_it_with_one_warning(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(g_record().to_line() + "\n" + self.TORN)
        with pytest.warns(UserWarning, match=r"cache.txt:2: skipping torn last line") as seen:
            store = Store(path)
        assert len(seen) == 1
        assert store.get("g", P("2,1"), 8, "strict").value == 4
        assert store.get("g", P("2,1"), 9, "strict") is None

    # a long tail spans several of the blocks read back from the end
    @pytest.mark.parametrize("tail", [TORN, "p 1 5000 strict 5001 exact " + "1," * 4000])
    @pytest.mark.parametrize("whole", [0, 1])
    def test_put_cuts_it_off(self, tmp_path, tail, whole):
        path = tmp_path / "cache.txt"
        path.write_text(g_record().to_line() + "\n" if whole else "")
        with open(path, "a") as fh:
            fh.write(tail)
        with pytest.warns(UserWarning):
            store = Store(path)
        store.put(g_record("2,1", 9))
        lines = [g_record().to_line()] * whole + [g_record("2,1", 9).to_line()]
        assert path.read_text() == "\n".join(lines) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert Store(path).get("g", P("2,1"), 9, "strict").value == 5

    def test_put_waits_for_a_line_being_written(self, tmp_path):
        path = tmp_path / "cache.txt"
        store = Store(path)
        line = g_record().to_line() + "\n"
        # another writer holds the lock halfway through its line
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            os.write(fd, line[:10].encode())
            put = threading.Thread(target=store.put, args=(g_record("2,1", 9),))
            put.start()
            put.join(0.3)
            assert put.is_alive()
            os.write(fd, line[10:].encode())
        finally:
            os.close(fd)
        put.join(10)
        assert not put.is_alive()
        assert path.read_text() == line + g_record("2,1", 9).to_line() + "\n"

    def test_terminated_bad_line_stays_fatal(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(self.TORN + "\n" + g_record().to_line())
        with pytest.raises(StoreError, match=":1: expected 7 fields"):
            Store(path)


class TestShapeMemo:
    """A wave search shared by translates must not let a bad record through."""

    def test_translate_with_wrong_value_rejected(self, tmp_path):
        path = tmp_path / "cache.txt"
        path.write_text(
            "g 2,1 8 strict 4 exact 1,2,4,8\n"
            "g 2,1 9 strict 5 exact 2,3,5,9\n"
        )
        with pytest.raises(StoreError, match=r":2: .*size"):
            Store(path)

    @pytest.mark.parametrize(
        "first,second,wave",
        [
            # same gaps, other pattern, strict and weak
            ("g 2,1 8 strict 4 exact 1,2,4,8", "g 1,2 9 strict 4 exact 2,3,5,9",
             "strict wave for 1,2"),
            ("g 2,1 8 weak 4 exact 1,2,4,8", "g 1,2 9 weak 4 exact 2,3,5,9",
             "weak wave for 1,2"),
            # same gaps and pattern, other mode
            ("g 2,1 3 strict 3 exact 1,2,3", "g 2,1 4 weak 3 exact 2,3,4",
             "weak wave for 2,1"),
        ],
    )
    def test_shape_is_per_pattern_and_mode(self, tmp_path, first, second, wave):
        path = tmp_path / "cache.txt"
        path.write_text(first + "\n" + second + "\n")
        with pytest.raises(StoreError, match=rf":2: .*{wave}"):
            Store(path)

    def test_translate_put_skips_search(self, tmp_path, monkeypatch):
        calls = []

        def counting_find_wave(*args):
            calls.append(args)
            return wavelab.find_wave(*args)

        monkeypatch.setattr(store_module, "find_wave", counting_find_wave)
        # an earlier test in this process may have searched the shape already
        store_module._holds_wave.cache_clear()
        path = tmp_path / "cache.txt"
        store = Store(path)
        store.put(Record.from_line("g 2,1 5 strict 4 exact 1,2,3,5"))
        assert len(calls) == 1
        store.put(Record.from_line("g 2,1 6 strict 4 exact 1,2,3,5"))
        assert len(calls) == 1
        assert len(path.read_text().splitlines()) == 2
        # the memo outlives the store: a new instance and a bare verify search nothing
        assert Store(path).get("g", P("2,1"), 6, "strict").value == 4
        Record.from_line("g 2,1 7 strict 4 exact 2,3,4,6").verify()
        assert len(calls) == 1


def _child_env():
    """The environment with this checkout's wavelab first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(wavelab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


_PUT_CHILD = """
import os, sys, time
from wavelab import Record, Store
lines_path, cache, ready, go = sys.argv[1:]
with open(lines_path) as fh:
    records = [Record.from_line(line) for line in fh.read().splitlines()]
store = Store(cache)
open(ready, "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(go):
    if time.monotonic() > deadline:
        sys.exit("no start signal")
    time.sleep(0.001)
for rec in records:
    store.put(rec)
"""


class TestConcurrentWriters:
    def test_two_processes_append_whole_lines(self, tmp_path):
        cache = tmp_path / "cache.txt"
        go = tmp_path / "go"
        env = _child_env()
        expected, readies, children = [], [], []
        for pattern in ("2,1", "1,2"):
            lines = [g_record(pattern, n).to_line() for n in range(1, 61)]
            expected += lines
            lines_path = tmp_path / f"{pattern}.txt"
            lines_path.write_text("\n".join(lines) + "\n")
            readies.append(tmp_path / f"{pattern}.ready")
            children.append(subprocess.Popen(
                [sys.executable, "-c", _PUT_CHILD, str(lines_path), str(cache),
                 str(readies[-1]), str(go)],
                env=env,
            ))
        try:
            # both loaded the empty cache before either appends
            deadline = time.monotonic() + 60
            while not all(r.exists() for r in readies) and time.monotonic() < deadline:
                time.sleep(0.01)
            go.touch()
            codes = [child.wait(timeout=120) for child in children]
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
        assert codes == [0, 0]
        text = cache.read_text()
        assert text.endswith("\n")
        assert sorted(text.splitlines()) == sorted(expected)
        store = Store(cache)
        assert store.get("g", P("1,2"), 60, "strict").value == exact_g(P("1,2"), 60).value

    def test_two_table_processes_share_a_torn_cache(self, tmp_path):
        cache = tmp_path / "cache.txt"
        cache.write_text(TestTornTail.TORN)
        env = _child_env()
        children = [
            subprocess.Popen(
                [sys.executable, "-m", "wavelab.cli", "table", "--kind", "g", "--pi", pattern,
                 "--max", "60", "--csv", str(tmp_path / f"{pattern}.csv"), "--cache", str(cache)],
                env=env, stderr=subprocess.PIPE, text=True,
            )
            for pattern in ("2,1", "1,2")
        ]
        results = []
        try:
            for child in children:
                _, err = child.communicate(timeout=120)
                results.append((child.returncode, err))
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
        # each skips the torn line if it loads before the first put cuts it
        assert [code for code, _ in results] == [0, 0]
        assert all("Traceback" not in err for _, err in results)
        expected = [
            g_record(pattern, n).to_line() for pattern in ("2,1", "1,2") for n in range(1, 61)
        ]
        text = cache.read_text()
        assert text.endswith("\n")
        assert sorted(text.splitlines()) == sorted(expected)
