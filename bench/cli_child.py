"""One traced `sivcav` CLI invocation, used by the traced cli-shipped run.

    python bench/cli_child.py <spans.json> <sivcav arguments...>

Imports `sivcav.cli`, wraps the layers (see spans.py), runs `cli.main` with
the remaining arguments and writes the recorded spans to <spans.json>.
"""

from __future__ import annotations

import json
import sys

import sivcav.cli

import spans


def main(spans_path, argv):
    tracer = spans.Tracer()
    tracer.install()
    tracer.op = argv[0]
    try:
        return sivcav.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
