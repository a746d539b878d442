"""Traced stand-in for ``python -m wavelab.cli``.

    python3 bench/launcher.py SPANS ARG...

Times the import of wavelab.cli, installs the boundary wrappers, runs
``wavelab.cli.main(ARG...)`` and exits with its status, like the module
does.  Spans, the import time and the status are written to SPANS.
"""

from __future__ import annotations

import sys
import time

from tracing import Tracer, install_cli_boundaries


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import wavelab.cli as cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install_cli_boundaries(tracer)
    code = tracer.wrap("cli.main", cli.main, lambda _out, a: a[0][0])(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, import_s=import_s, command=argv[0], code=code)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
