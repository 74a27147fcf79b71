"""Child-process entry for traced runs.

    python3 launcher.py SPANS_FILE setup N     # import, perm_table(N), SpaceFinder(N)
    python3 launcher.py SPANS_FILE cli ARG...  # causalspace.cli.main(ARG...)

``setup 0`` only imports the package.

Installs the span tracer before the program runs and writes the spans as
JSON to SPANS_FILE when it exits. The exit code is the program's.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spans


def main() -> int:
    spans_file, mode, *args = sys.argv[1:]
    tracer = spans.Tracer()
    missing = spans.install(tracer)
    if missing:
        print(f"launcher: not traced: {', '.join(missing)}", file=sys.stderr)
    tracer.enabled = True
    code = 0
    try:
        if mode == "setup":
            n = int(args[0])
            if n:
                import causalspace

                causalspace.perm_table(n)
                causalspace.SpaceFinder(n, verbose=False)
        else:
            from causalspace import cli

            code = cli.main(args)
    finally:
        tracer.enabled = False
        Path(spans_file).write_text(json.dumps(tracer.take()))
    return code


if __name__ == "__main__":
    sys.exit(main())
