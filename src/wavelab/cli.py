"""Command-line surface.

Subcommands mirror the library one-to-one: ``classify``, ``detect``,
``search``, ``g``, ``p``, ``bound``, ``extract``, ``construct``, ``table``,
and ``verify``.  Exit status: 0 success, 1 domain error, 2 usage error,
3 result incomplete under the node budget.

The ``g``, ``p`` and ``table`` commands share one cached solve over a
line-oriented cache: an exact record answers without a search, and only
exact results are appended, so expensive searches run once.  The path
comes from ``--cache``, the WAVELAB_CACHE environment variable, or
./wavelab-cache.txt, and ``--no-cache`` disables it.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from typing import Sequence

from .constructions import (
    ExtractionFailure,
    _find_mono_wave,
    ezconst_coloring,
    extract_wave_main,
    extract_wave_strong,
    product_coloring,
)
from .perm import Permutation, classify
from .solvers import (
    DEFAULT_NODE_BUDGET,
    Coloring,
    exact_P,
    exact_g,
    recursive_upper_bound_g,
)
from .store import DEFAULT_STORE_PATH, STORE_PATH_ENV, Record, Store
from .waves import IntSet, find_wave, is_pi_wave, is_weak_pi_wave

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _mode(args: argparse.Namespace) -> str:
    return "weak" if getattr(args, "weak", False) else "strict"


def _store_for(args: argparse.Namespace) -> Store | None:
    if getattr(args, "no_cache", False):
        return None
    path = getattr(args, "cache", None) or os.environ.get(STORE_PATH_ENV) or DEFAULT_STORE_PATH
    return Store(path)


def _read_coloring(path: str, palette: int | None) -> Coloring:
    with open(path, "r", encoding="utf-8") as fh:
        return Coloring.parse(fh.read(), palette)


def _write_coloring(coloring: Coloring, out: str | None) -> None:
    text = f"palette: {coloring.palette}\n{coloring}\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pattern)
    c = classify(pi)
    print(f"pattern: {pi}")
    print("peaks: " + (",".join(map(str, c.peaks)) if c.peaks else "none"))
    if c.layered:
        assert c.layers is not None
        blocks = " | ".join(
            ",".join(str(v) for v in pi.values[a - 1 : b]) for a, b, _ in c.layers
        )
        sizes = ",".join(str(sz) for _, _, sz in c.layers)
        print(f"layers: {blocks} (sizes {sizes}; non-final of size >= 2: "
              f"{c.nonfinal_big_layers})")
    else:
        print("layers: not layered")
    lb = "?" if c.exponent_lb is None else str(c.exponent_lb)
    print(f"exponent {lb}..{c.exponent_ub}")
    return EXIT_OK


def _cmd_detect(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    try:
        points = tuple(int(p) for p in args.seq.split(","))
    except ValueError:
        raise ValueError(f"cannot parse point sequence from {args.seq!r}") from None
    pred = is_weak_pi_wave if args.weak else is_pi_wave
    print("wave" if pred(points, pi) else "no wave")
    return EXIT_OK


def _cmd_search(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    s = IntSet.parse(args.set, universe=args.n)
    w = find_wave(s, pi, _mode(args))
    print(str(w) if w is not None else "none")
    return EXIT_OK


def _cached_solve(
    kind: str, pi: Permutation, param: int, mode: str, store: Store | None, node_budget: int
) -> tuple[int, str, IntSet | Coloring]:
    """(value, status, witness) of g(pi, param) or P(pi, param), by ``kind``.

    An exact record in the store answers without a search; otherwise the
    solver runs and an exact result is appended to the store.  Lower bounds
    are returned but never stored.
    """
    rec = store.get(kind, pi, param, mode) if store is not None else None
    if rec is not None and rec.status == "exact":
        return rec.value, rec.status, rec.witness
    if kind == "g":
        res = exact_g(pi, param, mode, node_budget=node_budget)
        witness = res.witness
    else:
        res = exact_P(pi, param, mode, node_budget=node_budget)
        witness = res.extremal
    if store is not None and res.status == "exact":
        store.put(Record(kind, pi, param, mode, res.value, "exact", witness))
    return res.value, res.status, witness


def _cmd_solve(args: argparse.Namespace) -> int:
    """``g`` and ``p``: the subcommand name is the kind of value."""
    pi = Permutation.parse(args.pi)
    value, status, witness = _cached_solve(
        args.command, pi, args.param, _mode(args), _store_for(args), args.node_budget
    )
    if status == "exact":
        print(value)
    else:
        print(f"incomplete: budget exhausted, best lower bound {value}")
    print(str(witness))
    return EXIT_OK if status == "exact" else EXIT_INCOMPLETE


def _cmd_bound(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    print(recursive_upper_bound_g(pi, args.n))
    return EXIT_OK


def _cmd_extract(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    s = IntSet.parse(args.set, universe=args.n)
    run = extract_wave_strong if args.strong else extract_wave_main
    witness, trace = run(s, pi)
    if args.trace:
        print(trace.render())
    else:
        print(str(witness))
    return EXIT_OK


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.construction == "ezconst":
        pi = Permutation.parse(args.pi)
        c0 = _read_coloring(args.c0, args.palette)
        c0p = _read_coloring(args.c0p, args.palette)
        out = ezconst_coloring(pi, c0, c0p, _mode(args))
    else:
        pi_l = Permutation.parse(args.pi_left)
        pi_r = Permutation.parse(args.pi_right)
        cl = _read_coloring(args.cl, args.m)
        cr = _read_coloring(args.cr, args.m)
        out = product_coloring(pi_l, pi_r, args.m, cl, cr)
    _write_coloring(out, args.out)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    coloring = _read_coloring(args.coloring, args.palette)
    found = _find_mono_wave(coloring, pi, _mode(args))
    if found is None:
        print("wave-free")
    else:
        color, witness = found
        print(f"monochromatic wave: color {color}, points {witness}")
    return EXIT_OK


def emit_table(
    kind: str,
    pi: Permutation,
    max_param: int,
    mode: str,
    csv_path: str,
    store: Store | None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> bool:
    """Write a CSV of values for param = 1..max_param; True iff all exact.

    Values come from the store when it already has them exactly, and exact
    values are stored after computation.
    """
    incomplete = False
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pattern", "param", "mode", "value", "status", "witness"])
        for param in range(1, max_param + 1):
            value, status, witness = _cached_solve(kind, pi, param, mode, store, node_budget)
            incomplete = incomplete or status != "exact"
            writer.writerow([str(pi), param, mode, value, status, str(witness)])
    return not incomplete


def _cmd_table(args: argparse.Namespace) -> int:
    pi = Permutation.parse(args.pi)
    if args.max < 0:
        raise ValueError("--max must be >= 0")
    complete = emit_table(
        args.kind, pi, args.max, _mode(args), args.csv, _store_for(args),
        node_budget=args.node_budget,
    )
    return EXIT_OK if complete else EXIT_INCOMPLETE


def _node_budget(text: str) -> int:
    """A ``--node-budget`` value, refused at parse time when it is negative."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {budget}")
    return budget


def _add_cache_opts(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--cache", help=f"cache file (default ${STORE_PATH_ENV} or {DEFAULT_STORE_PATH})")
    sp.add_argument("--no-cache", action="store_true", help="do not read or write the cache")
    sp.add_argument(
        "--node-budget", type=_node_budget, default=DEFAULT_NODE_BUDGET,
        help="search node budget before returning an incomplete result",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavelab",
        description="Exact computation and construction verification for "
                    "permutation pattern waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="peak/layer structure and exponent interval")
    sp.add_argument("pattern", help="permutation, e.g. 4,3,1,2 or 4312")
    sp.set_defaults(func=_cmd_classify)

    sp = sub.add_parser("detect", help="is a point sequence a wave for a pattern?")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--seq", required=True, help="comma-separated points")
    sp.add_argument("--weak", action="store_true")
    sp.set_defaults(func=_cmd_detect)

    sp = sub.add_parser("search", help="least wave inside a set, if any")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--set", required=True, help="comma-separated elements")
    sp.add_argument("--n", type=int, help="universe size (default: max element)")
    sp.add_argument("--weak", action="store_true")
    sp.set_defaults(func=_cmd_search)

    sp = sub.add_parser("g", help="largest wave-free subset of [n]")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--n", type=int, required=True, dest="param", metavar="N")
    sp.add_argument("--weak", action="store_true")
    _add_cache_opts(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("p", help="least M forcing a monochromatic wave")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--r", type=int, required=True, dest="param", metavar="R",
                    help="palette size")
    sp.add_argument("--weak", action="store_true")
    _add_cache_opts(sp)
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("bound", help="recursive upper bound for the wave-free size")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.set_defaults(func=_cmd_bound)

    sp = sub.add_parser("extract", help="run a pigeonhole wave extraction")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--set", required=True)
    sp.add_argument("--n", type=int, help="universe size (default: max element)")
    sp.add_argument("--strong", action="store_true",
                    help="two-insertion variant (values 1 and 2 non-adjacent)")
    sp.add_argument("--trace", action="store_true", help="print the full step trace")
    sp.set_defaults(func=_cmd_extract)

    sp = sub.add_parser("construct", help="build and verify a wave-free coloring")
    csub = sp.add_subparsers(dest="construction", required=True)
    ez = csub.add_parser("ezconst", help="palette-doubling three-block coloring")
    ez.add_argument("--pi", required=True, help="pattern beginning with its maximum")
    ez.add_argument("--c0", required=True, help="file: wave-free coloring for the pattern")
    ez.add_argument("--c0p", required=True,
                    help="file: wave-free coloring for the pattern minus its maximum")
    ez.add_argument("--palette", type=int, help="palette override for both inputs")
    ez.add_argument("--weak", action="store_true")
    ez.add_argument("--out", help="also write the result to this file")
    ez.set_defaults(func=_cmd_construct)
    pr = csub.add_parser("product", help="mixed-radix product coloring (weak waves)")
    pr.add_argument("--pi-left", required=True)
    pr.add_argument("--pi-right", required=True)
    pr.add_argument("--m", type=int, required=True, help="palette of both inputs")
    pr.add_argument("--cl", required=True, help="file: left coloring")
    pr.add_argument("--cr", required=True, help="file: right coloring (domain divisible by 5)")
    pr.add_argument("--out", help="also write the result to this file")
    pr.set_defaults(func=_cmd_construct)

    sp = sub.add_parser("table", help="emit a CSV of exact values")
    sp.add_argument("--kind", choices=("g", "p"), required=True)
    sp.add_argument("--pi", required=True)
    sp.add_argument("--max", type=int, required=True, help="largest n or r")
    sp.add_argument("--weak", action="store_true")
    sp.add_argument("--csv", required=True, help="output path")
    _add_cache_opts(sp)
    sp.set_defaults(func=_cmd_table)

    sp = sub.add_parser("verify", help="check a coloring for monochromatic waves")
    sp.add_argument("--coloring", required=True, help="file with the coloring")
    sp.add_argument("--pi", required=True)
    sp.add_argument("--palette", type=int, help="palette override")
    sp.add_argument("--weak", action="store_true")
    sp.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ExtractionFailure, ValueError, OSError) as exc:  # StoreError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    raise SystemExit(main())
