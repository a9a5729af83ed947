"""Run one CLI call in this fresh interpreter with the layer tracer installed.

Usage: ``python traced_cli.py SPANS_JSON JOB_TAG ARG...``.  Exits with the
CLI's exit code after writing the span summary and the spans to SPANS_JSON.
"""

import json
import sys

from hypermap_codes import cli
from tracing import Tracer, summarize


def main() -> int:
    out_path, tag, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    tracer.job = tag
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        spans, counters = tracer.take()
        with open(out_path, "w") as fh:
            json.dump({"summary": summarize(spans, counters), "spans": spans}, fh)


if __name__ == "__main__":
    sys.exit(main())
