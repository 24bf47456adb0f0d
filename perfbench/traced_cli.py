"""Run one `stridelab.cli` command with spans on every layer.

    python3 perfbench/traced_cli.py SPANS.json [stridelab arguments ...]

Behaves like `python -m stridelab.cli [arguments ...]` and, at exit, writes
the spans of this process to SPANS.json.  `analyze --jobs N` fits its walks
in worker processes, whose spans are not written: the per-walk breakdown
comes from the fit_batch workload.
"""

import sys
from pathlib import Path

from tracing import LAYERS, Tracer, install


def main() -> int:
    out = Path(sys.argv[1])
    tracer = Tracer()
    install(tracer, LAYERS)
    from stridelab import cli

    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main())
