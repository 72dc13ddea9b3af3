"""Run the delpezzo command line with spans recorded.

    python -m perfbench.cli_traced SPANS_JSON classify --json --file BATCH

Installs the tracer, calls ``delpezzo.cli.main`` with the remaining
arguments, removes the wrappers and writes the spans to SPANS_JSON.
"""

import json
import sys

import delpezzo.cli

from perfbench.tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = delpezzo.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
