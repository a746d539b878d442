"""Line-oriented persistence for computed extremal values.

One record per line, space-separated, permutation and witness comma-joined:

    kind pattern param mode value status witness
    g    2,1     8     strict 4 exact  1,2,3,5
    p    2,1     2     strict 9 exact  1,1,1,2,2,2,1,2

Density records (kind ``g``) carry the extremal wave-free set; coloring
records (kind ``p``) carry the extremal coloring of [value-1].  The store
serves exact records only, one per key, and ``put`` refuses any other.
Every record re-verifies through :meth:`Record.verify`, both on ``put`` and
when the file is loaded.  A ``lower-bound`` line, which an older cache may
hold, is verified on load like any other and then ignored.  A later exact
record for the same key that repeats the stored value is skipped, and one
that contradicts it is rejected.  The store performs no symmetry closure:
looking up the reverse of a stored pattern misses.

Whether a set holds a wave depends only on its consecutive gaps, so all
translates of a set hold a wave or none does.  The wave search for a
density witness therefore runs once per distinct (pattern, mode, gaps)
shape, and the answer is remembered for the whole process: by every
:class:`Store`, on load and on ``put``, and by library calls of
:meth:`Record.verify`.  The other checks (universe, size against value,
and for colorings everything) still run on every record.

Every line a ``put`` writes ends in a newline, so an unterminated last line
is a write that a crash tore off.  Loading skips it with a warning, and the
next ``put`` cuts it off before appending.  Any other bad line is fatal.
"""

from __future__ import annotations

import fcntl
import functools
import itertools
import os
import threading
import warnings

from .constructions import verify_coloring_wave_free
from .perm import Permutation, _Value
from .solvers import Coloring
from .waves import IntSet, Mode, find_wave, wave_predicate

__all__ = [
    "Record",
    "Store",
    "StoreError",
    "StoreConflictError",
]

DEFAULT_STORE_PATH = "wavelab-cache.txt"
STORE_PATH_ENV = "WAVELAB_CACHE"


class StoreError(ValueError):
    """Malformed or unverifiable store content."""


class StoreConflictError(StoreError):
    """Two exact records disagree for the same key."""


@functools.lru_cache(maxsize=256)
def _parse_pattern(text: str) -> Permutation:
    """``Permutation.parse``, once per distinct text: a cache repeats few patterns."""
    return Permutation.parse(text)


class Record(_Value):
    kind: str  # "g" | "p"
    pattern: Permutation
    parameter: int
    mode: Mode
    value: int
    status: str  # "exact" | "lower-bound"
    witness: IntSet | Coloring

    def __init__(
        self, kind: str, pattern: Permutation, parameter: int, mode: Mode, value: int,
        status: str, witness: IntSet | Coloring,
    ) -> None:
        if kind not in ("g", "p"):
            raise ValueError(f"kind must be 'g' or 'p', got {kind!r}")
        if status not in ("exact", "lower-bound"):
            raise ValueError(f"status must be 'exact' or 'lower-bound', got {status!r}")
        wave_predicate(mode)
        if parameter < 1:
            raise ValueError("parameter must be >= 1")
        self.__dict__.update(kind=kind, pattern=pattern, parameter=parameter, mode=mode,
                             value=value, status=status, witness=witness)

    @property
    def key(self) -> tuple[str, tuple[int, ...], int, str]:
        return (self.kind, self.pattern.values, self.parameter, self.mode)

    def verify(self) -> None:
        """Re-check the witness; raises StoreError when it fails.

        A density witness is searched for waves once per (pattern, mode,
        gaps) shape per process, through ``_holds_wave``.
        """
        if self.kind == "g":
            if not isinstance(self.witness, IntSet):
                raise StoreError("density record needs an integer-set witness")
            if self.witness.universe != self.parameter:
                raise StoreError(
                    f"witness universe {self.witness.universe} != n={self.parameter}"
                )
            if len(self.witness) != self.value:
                raise StoreError(
                    f"witness size {len(self.witness)} != value {self.value}"
                )
            els = self.witness.elements
            if _holds_wave(self.pattern, self.mode, tuple(b - a for a, b in zip(els, els[1:]))):
                raise StoreError(
                    f"witness {self.witness} contains a {self.mode} wave for {self.pattern}"
                )
        else:
            if not isinstance(self.witness, Coloring):
                raise StoreError("coloring record needs a coloring witness")
            if self.witness.domain_size != self.value - 1:
                raise StoreError(
                    f"extremal coloring domain {self.witness.domain_size} != value-1 "
                    f"= {self.value - 1}"
                )
            if self.witness.palette != self.parameter:
                raise StoreError(
                    f"extremal coloring palette {self.witness.palette} != r={self.parameter}"
                )
            if not verify_coloring_wave_free(self.witness, self.pattern, self.mode):
                raise StoreError(
                    f"extremal coloring has a monochromatic {self.mode} wave for {self.pattern}"
                )

    def to_line(self) -> str:
        wit = str(self.witness) or "-"
        return (
            f"{self.kind} {self.pattern} {self.parameter} {self.mode} "
            f"{self.value} {self.status} {wit}"
        )

    @classmethod
    def from_line(cls, line: str) -> "Record":
        parts = line.split()
        if len(parts) != 7:
            raise StoreError(f"expected 7 fields, got {len(parts)}: {line!r}")
        kind, pat_text, param_text, mode, value_text, status, wit_text = parts
        try:
            pattern = _parse_pattern(pat_text)
            parameter = int(param_text)
            value = int(value_text)
        except ValueError as exc:
            raise StoreError(f"unparseable record {line!r}: {exc}") from None
        witness: IntSet | Coloring
        try:
            if kind == "g":
                if wit_text == "-":
                    witness = IntSet((), parameter)
                else:
                    witness = IntSet.parse(wit_text, universe=parameter)
            else:
                colors = () if wit_text == "-" else tuple(int(p) for p in wit_text.split(","))
                witness = Coloring(colors, parameter)
        except ValueError as exc:
            raise StoreError(f"bad witness in record {line!r}: {exc}") from None
        try:
            return cls(kind, pattern, parameter, mode, value, status, witness)  # type: ignore[arg-type]
        except ValueError as exc:
            raise StoreError(f"bad record {line!r}: {exc}") from None


@functools.lru_cache(maxsize=None)
def _holds_wave(pattern: Permutation, mode: Mode, gaps: tuple[int, ...]) -> bool:
    """Whether a set with these consecutive gaps holds a wave (all its translates agree).

    ``find_wave`` is looked up at call time, so a wrapper on this module's name sees it.
    """
    points = tuple(itertools.accumulate(gaps, initial=1))
    return find_wave(IntSet(points, points[-1]), pattern, mode) is not None


def _cut_torn_tail(fd: int) -> None:
    """Truncate the file behind fd after its last newline (the caller holds its lock)."""
    end = pos = os.fstat(fd).st_size
    while pos:
        start = max(0, pos - 4096)
        newline = os.pread(fd, pos - start, start).rfind(b"\n")
        if newline >= 0:
            pos = start + newline + 1
            break
        pos = start
    if pos < end:
        os.ftruncate(fd, pos)


class Store:
    """Append-only record file with an in-memory index.

    Each put appends its whole line with a single ``write`` on an
    ``O_APPEND`` descriptor and syncs it, holding an exclusive ``flock``
    from the torn-line check to the sync, so puts from several threads or
    processes land as whole lines.  Loading verifies every record, rejects
    the file on the first bad one except a torn last line, and indexes the
    exact ones.
    """

    def __init__(self, path: str | os.PathLike[str]):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._records: dict[tuple, Record] = {}
        if os.path.exists(self.path):
            # only "\n" ends a line, as in the byte check of _cut_torn_tail
            with open(self.path, "r", encoding="utf-8", newline="\n") as fh:
                for lineno, line in enumerate(fh, start=1):
                    if not line.endswith("\n"):
                        warnings.warn(
                            f"{self.path}:{lineno}: skipping torn last line {line!r}",
                            stacklevel=2,
                        )
                        break
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    try:
                        rec = Record.from_line(line)
                        rec.verify()
                        if rec.status == "exact" and not self._repeats(rec):
                            self._records[rec.key] = rec
                    except StoreError as exc:
                        raise type(exc)(f"{self.path}:{lineno}: {exc}") from None

    def _repeats(self, rec: Record) -> bool:
        """True iff the key already holds ``rec``'s value.

        Raises :class:`StoreConflictError` when it holds a different one.
        """
        other = self._records.get(rec.key)
        if other is None:
            return False
        if other.value != rec.value:
            raise StoreConflictError(
                f"exact value {rec.value} conflicts with stored exact "
                f"value {other.value} for key {rec.key}"
            )
        return True

    def put(self, rec: Record) -> None:
        """Verify and durably append an exact record; a repeat of the stored one is a no-op.

        Raises :class:`StoreError`, writing nothing, for a record that is
        not exact: the store serves exact records only.
        """
        if rec.status != "exact":
            raise StoreError(f"the store keeps exact records only, got a {rec.status} record")
        rec.verify()
        data = (rec.to_line() + "\n").encode("utf-8")
        with self._lock:
            if self._repeats(rec):
                return
            fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
            try:
                # closing fd releases the lock
                fcntl.flock(fd, fcntl.LOCK_EX)
                _cut_torn_tail(fd)
                written = os.write(fd, data)
                if written != len(data):
                    raise OSError(
                        f"{self.path}: short append ({written} of {len(data)} bytes)"
                    )
                os.fsync(fd)
            finally:
                os.close(fd)
            # served from memory only once the file holds it
            self._records[rec.key] = rec

    def get(
        self, kind: str, pattern: Permutation, parameter: int, mode: Mode
    ) -> Record | None:
        """The key's exact record, or None; a lower-bound line is never served."""
        return self._records.get((kind, pattern.values, parameter, mode))
