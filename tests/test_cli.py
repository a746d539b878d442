import contextlib
import csv
import io
import os
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from wavelab import Permutation
from wavelab.cli import main
from wavelab.solvers import _reset_caches
from wavelab.store import STORE_PATH_ENV


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestBasicCommands:
    def test_g_example(self, capsys):
        code, out, _ = run(capsys, "g", "--pi", "2,1", "--n", "8", "--no-cache")
        assert code == 0
        assert out == "4\n1,2,3,5\n"

    def test_g_deterministic_across_runs(self, capsys):
        first = run(capsys, "g", "--pi", "2,1", "--n", "12", "--no-cache")
        second = run(capsys, "g", "--pi", "2,1", "--n", "12", "--no-cache")
        assert first == second

    def test_p_example(self, capsys):
        code, out, _ = run(capsys, "p", "--pi", "1", "--r", "3", "--no-cache")
        assert code == 0
        assert out == "4\n1,2,3\n"

    def test_detect(self, capsys):
        code, out, _ = run(capsys, "detect", "--pi", "1,3,2", "--seq", "1,2,6,9")
        assert code == 0 and out == "wave\n"
        code, out, _ = run(capsys, "detect", "--pi", "1,2", "--seq", "1,2,3")
        assert code == 0 and out == "no wave\n"
        code, out, _ = run(
            capsys, "detect", "--pi", "2,1", "--seq", "1,2,3", "--weak"
        )
        assert code == 0 and out == "wave\n"

    def test_search(self, capsys):
        code, out, _ = run(capsys, "search", "--pi", "2,1", "--set", "1,3,4")
        assert code == 0 and out == "1,3,4\n"
        code, out, _ = run(capsys, "search", "--pi", "2,1", "--set", "1,2,4,8")
        assert code == 0 and out == "none\n"

    def test_classify(self, capsys):
        code, out, _ = run(capsys, "classify", "7,8,9,6,2,3,4,5,1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "pattern: 7,8,9,6,2,3,4,5,1"
        assert lines[1] == "peaks: 3,8"
        assert "7,8,9 | 6 | 2,3,4,5 | 1" in lines[2]
        assert lines[3] == "exponent 6..6"

    def test_classify_unknown_lower(self, capsys):
        code, out, _ = run(capsys, "classify", "2,4,1,3")
        assert code == 0
        assert out.splitlines()[-1] == "exponent ?..2"

    def test_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--pi", "2,1", "--n", "256")
        assert code == 0 and out == "480\n"

    def test_extract(self, capsys):
        code, out, _ = run(
            capsys, "extract", "--pi", "2,1",
            "--set", ",".join(str(i) for i in range(1, 31)),
        )
        assert code == 0 and out == "8,14,15\n"

    def test_extract_trace(self, capsys):
        code, out, _ = run(
            capsys, "extract", "--pi", "2,1", "--trace",
            "--set", ",".join(str(i) for i in range(1, 31)),
        )
        assert code == 0
        assert "chosen class s = 1" in out
        assert "final wave: 8,14,15" in out

    def test_extract_failure_exits_1(self, capsys):
        code, out, err = run(capsys, "extract", "--pi", "2,1", "--set", "1,2,4,8")
        assert code == 1
        assert "inner-wave" in err


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(capsys, "g", "--pi", "2,1")[0] == 2
        assert run(capsys)[0] == 2
        assert run(capsys, "frobnicate")[0] == 2

    def test_domain_error(self, capsys):
        code, _, err = run(capsys, "g", "--pi", "2,2", "--n", "5", "--no-cache")
        assert code == 1 and "error:" in err

    def test_budget_incomplete_exits_3(self, capsys):
        code, out, _ = run(
            capsys, "g", "--pi", "1,2,4,3", "--n", "25",
            "--node-budget", "10", "--no-cache",
        )
        assert code == 3
        assert out.startswith("incomplete")

    def test_negative_budget_is_refused_before_the_cache_is_read(self, capsys, tmp_path):
        cache = tmp_path / "c.txt"
        assert run(capsys, "g", "--pi", "2,1", "--n", "5", "--cache", str(cache))[0] == 0
        # a cache hit (n = 5) and a miss (n = 6) exit alike
        for argv in (["g", "--pi", "2,1", "--n", "5"], ["g", "--pi", "2,1", "--n", "6"],
                     ["p", "--pi", "2,1", "--r", "2"],
                     ["table", "--kind", "g", "--pi", "2,1", "--max", "0",
                      "--csv", str(tmp_path / "t.csv")]):
            code, out, err = run(capsys, *argv, "--node-budget", "-5", "--cache", str(cache))
            assert (code, out) == (2, ""), argv
            assert "--node-budget: must be >= 0" in err
        assert cache.read_text() == "g 2,1 5 strict 4 exact 1,2,3,5\n"
        assert not (tmp_path / "t.csv").exists()
        # a cache that cannot be read is never opened
        cache.write_text("not a record\n")
        code, _, _ = run(capsys, "g", "--pi", "2,1", "--n", "5", "--node-budget", "-1",
                         "--cache", str(cache))
        assert code == 2


class TestCache:
    def test_g_uses_cache(self, capsys, tmp_path):
        cache = tmp_path / "c.txt"
        first = run(capsys, "g", "--pi", "2,1", "--n", "8", "--cache", str(cache))
        assert first[0] == 0
        assert "g 2,1 8 strict 4 exact 1,2,3,5" in cache.read_text()
        second = run(capsys, "g", "--pi", "2,1", "--n", "8", "--cache", str(cache))
        assert second == first

    def test_p_uses_cache(self, capsys, tmp_path):
        cache = tmp_path / "c.txt"
        first = run(capsys, "p", "--pi", "2,1", "--r", "2", "--cache", str(cache))
        assert first == (0, "9\n1,1,1,2,2,2,1,2\n", "")
        assert cache.read_text() == "p 2,1 2 strict 9 exact 1,1,1,2,2,2,1,2\n"
        second = run(capsys, "p", "--pi", "2,1", "--r", "2", "--cache", str(cache))
        assert second == first

    def _budgeted_table(self, capsys, tmp_path):
        _reset_caches()  # earlier solves of 1,3,2 in this process would be reused
        out_csv = tmp_path / "t.csv"
        cache = tmp_path / "c.txt"
        code, _, _ = run(
            capsys, "table", "--kind", "g", "--pi", "1,3,2", "--max", "12",
            "--node-budget", "10", "--csv", str(out_csv), "--cache", str(cache),
        )
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        return code, rows, cache

    def test_budgeted_table_reports_lower_bounds(self, capsys, tmp_path):
        code, rows, _ = self._budgeted_table(capsys, tmp_path)
        assert code == 3
        assert len(rows) == 12
        assert any(r[4] == "lower-bound" for r in rows)

    def test_budgeted_table_stores_exact_only(self, capsys, tmp_path):
        _, rows, cache = self._budgeted_table(capsys, tmp_path)
        text = cache.read_text()
        assert "lower-bound" not in text
        assert len(text.splitlines()) == sum(1 for r in rows if r[4] == "exact")

    def test_torn_last_line_does_not_brick_the_cache(self, capsys, tmp_path):
        cache = tmp_path / "c.txt"
        first = run(capsys, "g", "--pi", "2,1", "--n", "8", "--cache", str(cache))
        with open(cache, "a") as fh:
            fh.write("g 2,1 9 strict 5 ex")
        with pytest.warns(UserWarning, match="torn"):
            assert run(capsys, "g", "--pi", "2,1", "--n", "8", "--cache", str(cache)) == first
        with pytest.warns(UserWarning, match="torn"):
            code, out, _ = run(capsys, "g", "--pi", "2,1", "--n", "9", "--cache", str(cache))
        assert (code, out) == (0, "5\n1,2,3,5,9\n")
        assert cache.read_text().splitlines() == [
            "g 2,1 8 strict 4 exact 1,2,3,5", "g 2,1 9 strict 5 exact 1,2,3,5,9"
        ]

    def test_env_var_cache_path(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "env-cache.txt"
        monkeypatch.setenv("WAVELAB_CACHE", str(cache))
        assert run(capsys, "g", "--pi", "2,1", "--n", "4")[0] == 0
        assert cache.exists()


class TestConstructAndVerify:
    def test_ezconst_and_verify(self, capsys, tmp_path):
        c0 = tmp_path / "c0.txt"
        c0.write_text("1,1,1\n")
        c0p = tmp_path / "c0p.txt"
        c0p.write_text("1\n")
        out_file = tmp_path / "out.txt"
        code, out, _ = run(
            capsys, "construct", "ezconst", "--pi", "2,1",
            "--c0", str(c0), "--c0p", str(c0p), "--out", str(out_file),
        )
        assert code == 0
        assert "palette: 2" in out and "1,1,1,2,2,2,1" in out
        code, out, _ = run(
            capsys, "verify", "--coloring", str(out_file), "--pi", "2,1"
        )
        assert code == 0 and out == "wave-free\n"

    def test_verify_reports_wave(self, capsys, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("1,1,1,1\n")
        code, out, _ = run(capsys, "verify", "--coloring", str(f), "--pi", "2,1")
        assert code == 0
        assert out == "monochromatic wave: color 1, points 1,3,4\n"

    def test_product(self, capsys, tmp_path):
        cl = tmp_path / "cl.txt"
        cl.write_text("palette: 2\n1,1,2,2,1,2\n")
        cr = tmp_path / "cr.txt"
        cr.write_text("palette: 2\n1,1,2,2,1\n")
        code, out, _ = run(
            capsys, "construct", "product", "--pi-left", "2,1",
            "--pi-right", "2,1", "--m", "2", "--cl", str(cl), "--cr", str(cr),
        )
        assert code == 0
        assert "palette: 20" in out

    def test_ezconst_precondition_error(self, capsys, tmp_path):
        c0 = tmp_path / "c0.txt"
        c0.write_text("1,1,1,1\n")
        c0p = tmp_path / "c0p.txt"
        c0p.write_text("1\n")
        code, _, err = run(
            capsys, "construct", "ezconst", "--pi", "2,1",
            "--c0", str(c0), "--c0p", str(c0p),
        )
        assert code == 1 and "monochromatic" in err


def _limited_cli(argv, limit, value):
    """Run the CLI in a child process under one resource limit, set before wavelab loads."""
    code = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.{limit}, ({value}, resource.RLIM_INFINITY))\n"
        "from wavelab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return subprocess.run([sys.executable, "-c", code, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)


class TestPaletteSize:
    """Work follows the points, not the palette: a huge palette costs nothing."""

    HUGE = str(10**12)

    def test_verify_skips_unused_colors(self, tmp_path):
        coloring = tmp_path / "c.txt"
        coloring.write_text("1,1,2\n")
        # a pass per palette color would take hours; 10 s of CPU ends it
        done = _limited_cli(["verify", "--coloring", str(coloring), "--pi", "2,1",
                             "--palette", self.HUGE], "RLIMIT_CPU", 10)
        assert (done.returncode, done.stdout, done.stderr) == (0, "wave-free\n", "")

    def test_cache_load_skips_unused_colors(self, capsys, tmp_path):
        cache = tmp_path / "c.txt"
        cache.write_text(f"p 1 {self.HUGE} strict 2 exact 1\n")
        done = _limited_cli(["g", "--pi", "2,1", "--n", "8", "--cache", str(cache)],
                            "RLIMIT_CPU", 10)
        expected = run(capsys, "g", "--pi", "2,1", "--n", "8", "--no-cache")
        assert (done.returncode, done.stdout, done.stderr) == expected

    def test_exact_P_does_not_allocate_the_palette(self):
        # a list of 10**9 slots needs 8 GB; never run this without the limit
        done = _limited_cli(["p", "--pi", "2,1", "--r", str(10**9), "--no-cache",
                             "--node-budget", "1000"], "RLIMIT_AS", 2**30)
        assert done.returncode == 3, done.stderr
        assert done.stdout.startswith("incomplete: budget exhausted")
        assert done.stderr == ""


class TestTable:
    def test_g_table_values(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        cache = tmp_path / "cache.txt"
        code, _, _ = run(
            capsys, "table", "--kind", "g", "--pi", "2,1", "--max", "16",
            "--csv", str(out_csv), "--cache", str(cache),
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["pattern", "param", "mode", "value", "status", "witness"]
        values = [int(r[3]) for r in rows[1:]]
        assert values == [1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(r[4] == "exact" for r in rows[1:])
        # second emission is served from the cache and is byte-identical
        first_bytes = out_csv.read_bytes()
        assert run(
            capsys, "table", "--kind", "g", "--pi", "2,1", "--max", "16",
            "--csv", str(out_csv), "--cache", str(cache),
        )[0] == 0
        assert out_csv.read_bytes() == first_bytes

    def test_p_table_values(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table", "--kind", "p", "--pi", "1", "--max", "4",
            "--csv", str(out_csv), "--no-cache",
        )
        assert code == 0
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert [int(r[3]) for r in rows[1:]] == [2, 3, 4, 5]

    def test_empty_range_header_only(self, capsys, tmp_path):
        out_csv = tmp_path / "t.csv"
        code, _, _ = run(
            capsys, "table", "--kind", "g", "--pi", "2,1", "--max", "0",
            "--csv", str(out_csv), "--no-cache",
        )
        assert code == 0
        assert out_csv.read_bytes() == b"pattern,param,mode,value,status,witness\r\n"


# Fuzzed command lines, kept to inputs that answer fast: n <= 30, r <= 2,
# P only for patterns of length <= 2, g only for length <= 3, colorings of
# at most 20 points, and every cache and CSV inside a temporary directory.
_FILE = "@file:"  # argv token prefix: write the rest to a file, pass its path


def _valid_pattern(max_len):
    """Text of a pattern of length <= max_len."""
    return st.integers(1, max_len).flatmap(
        lambda k: st.permutations(range(1, k + 1))
    ).map(lambda vals: ",".join(map(str, vals)))


def _pattern(max_len):
    """Text of a pattern of length <= max_len, or text parsing to no longer one."""

    def short_enough(text):
        try:
            return len(Permutation.parse(text)) <= max_len
        except ValueError:
            return True

    junk = st.text(alphabet="0123456789,- x", max_size=6).filter(short_enough)
    return st.one_of(_valid_pattern(max_len), junk)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


_POINTS = st.one_of(
    st.lists(st.integers(-1, 31), max_size=14).map(lambda xs: ",".join(map(str, xs))),
    st.text(alphabet="0123456789,- x", max_size=8),
)
_COLORING = st.one_of(
    st.lists(st.integers(0, 3), max_size=20).map(lambda cs: ",".join(map(str, cs))),
    st.tuples(st.integers(-1, 3), st.lists(st.integers(1, 2), min_size=1, max_size=20)).map(
        lambda t: f"palette: {t[0]}\n" + ",".join(map(str, t[1]))
    ),
    st.text(max_size=12),
).map(lambda text: _FILE + text)
_BUDGET = _ints(-1, 10**4)


def _req(flag, values):
    return values.map(lambda v: [flag, v])


def _opt(flag, values):
    return st.one_of(st.just([]), _req(flag, values))


def _switch(flag):
    return st.sampled_from([[], [flag]])


def _cache():
    return st.sampled_from([["--no-cache"], ["--cache", "cache.txt"], []])


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: name.split() + [t for p in ps for t in p])


def _cached_commands(pattern, budget, cache):
    """The commands that read and extend the cache."""
    return [
        _command("g", _req("--pi", pattern(3)), _req("--n", _ints(-1, 30)), _switch("--weak"),
                 cache, _opt("--node-budget", budget)),
        _command("p", _req("--pi", pattern(2)), _req("--r", _ints(-1, 2)), _switch("--weak"),
                 cache, _opt("--node-budget", budget)),
        _command("table --kind g", _req("--pi", pattern(3)), _req("--max", _ints(-1, 30)),
                 _switch("--weak"), _req("--csv", st.sampled_from(["t.csv", "no/such/t.csv"])),
                 cache, _opt("--node-budget", budget)),
        _command("table --kind p", _req("--pi", pattern(2)), _req("--max", _ints(-1, 2)),
                 _switch("--weak"), _req("--csv", st.just("t.csv")), cache),
    ]


_COMMANDS = st.one_of(
    _command("classify", _pattern(7).map(lambda p: [p])),
    _command("classify", st.just([",".join(map(str, range(13, 0, -1)))])),
    _command("detect", _req("--pi", _pattern(5)), _req("--seq", _POINTS), _switch("--weak")),
    _command("search", _req("--pi", _pattern(4)), _req("--set", _POINTS),
             _opt("--n", _ints(-1, 32)), _switch("--weak")),
    *_cached_commands(_pattern, _BUDGET, _cache()),
    _command("bound", _req("--pi", _pattern(7)), _req("--n", _ints(-1, 10**12))),
    _command("extract", _req("--pi", _pattern(4)), _req("--set", _POINTS),
             _opt("--n", _ints(-1, 32)), _switch("--strong"), _switch("--trace")),
    _command("construct ezconst", _req("--pi", _pattern(3)), _req("--c0", _COLORING),
             _req("--c0p", _COLORING), _opt("--palette", _ints(-1, 3)), _switch("--weak"),
             _opt("--out", st.just("out.txt"))),
    _command("construct product", _req("--pi-left", _pattern(3)),
             _req("--pi-right", _pattern(3)), _req("--m", _ints(-1, 2)),
             _req("--cl", _COLORING), _req("--cr", _COLORING)),
    _command("verify", _req("--coloring", _COLORING), _req("--pi", _pattern(4)),
             _opt("--palette", _ints(-1, 3)), _switch("--weak")),
)


@st.composite
def _argv(draw):
    """A command line, now and then with one token dropped or one junk token added."""
    argv = draw(_COMMANDS)
    edit = draw(st.sampled_from(["keep"] * 8 + ["drop", "add"]))
    if edit == "drop":
        del argv[draw(st.integers(0, len(argv) - 1))]
    elif edit == "add":
        junk = draw(st.sampled_from(["--bogus", "--n", "-1", "--weak", "x", "", "--help"]))
        argv.insert(draw(st.integers(0, len(argv))), junk)
    return argv


# Cache file contents: each entry is one or two lines, and the torn one
# stops short of its newline.
_CACHE_LINES = st.lists(st.sampled_from([
    "g 2,1 8 strict 4 exact 1,2,3,5\n",
    "p 2,1 2 strict 9 exact 1,1,1,2,2,2,1,2\n",
    "g 2,1 9 strict 4 lower-bound 1,2,3,5\n",
    "g 1,3,2 13 strict 2 lower-bound 1,2\n",
    "g 2,1 8 strict 4 exact 1,2,3,5\ng 2,1 8 strict 3 exact 1,2,3\n",  # conflict
    "g 1,2 6 weak 3 exact 1,3,4\n" * 2,  # repeat
    "g 2,1 9 strict 5 ex",  # torn
    "g 2,1 8 strict 4\n",
    "q 2,1 8 strict 4 exact 1,2,4,8\n",
    "g 2,1 8 strict 4 guess 1,2,4,8\n",
    "g 2,1 8 loose 4 exact 1,2,4,8\n",
    "g 2,1 8 strict 3 exact 1,3,4\n",  # holds a wave
    f"p 1 {10**12} strict 2 exact 1\n",
]), max_size=3).map("".join)


def _run_fuzzed(argv, cache_text=""):
    """(exit code, stderr) of main(argv), every file inside a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in ("cache.txt", "env-cache.txt") if cache_text else ():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                fh.write(cache_text)
        for i, tok in enumerate(argv):
            if tok.startswith(_FILE):
                argv[i] = os.path.join(tmp, f"coloring{i}.txt")
                with open(argv[i], "w", encoding="utf-8") as fh:
                    fh.write(tok[len(_FILE):])
            elif tok in ("cache.txt", "t.csv", "no/such/t.csv", "out.txt"):
                argv[i] = os.path.join(tmp, tok)
        out, err = io.StringIO(), io.StringIO()
        env = {STORE_PATH_ENV: os.path.join(tmp, "env-cache.txt")}
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a torn cache tail warns
            return main(argv), err.getvalue()


class TestFuzz:
    @given(_argv())
    @settings(max_examples=150, deadline=None)
    def test_exit_status_and_no_traceback(self, argv):
        code, err = _run_fuzzed(argv)
        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in err, argv

    # valid command lines that always read a cache, so none is a usage error
    @given(st.one_of(*_cached_commands(
        _valid_pattern, _ints(0, 10**4), st.sampled_from([["--cache", "cache.txt"], []]),
    )), _CACHE_LINES)
    @settings(max_examples=150, deadline=None)
    def test_cache_contents(self, argv, cache_text):
        code, err = _run_fuzzed(argv, cache_text)
        assert code in (0, 1, 3), (argv, cache_text, code)
        assert "Traceback" not in err, (argv, cache_text)


def test_import_generates_no_dataclass_code():
    """Every CLI command imports wavelab.cli first, so nothing it pulls in may be slow."""
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = "import sys, wavelab.cli; print(' '.join(m for m in %r if m in sys.modules))" % (
        heavy,
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True).stdout
    assert out.split() == []
