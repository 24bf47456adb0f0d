"""Run one `stridelab.cli` command and time each walk `analyze` fits.

    python3 perfbench/walk_timer.py TIMES.txt [stridelab arguments ...]

Behaves like `python -m stridelab.cli [arguments ...]`.  Each call of
`cli._analyze_one`, in this process or in an `analyze --jobs N` worker,
appends "walk_id seconds" to TIMES.txt.  The workers see the timed function
because they are forked from this process after it is installed; under a
start method that does not fork, no times are written and the benchmark
reports the walks as untimed.
"""

import functools
import sys
import time

from stridelab import cli


def main() -> int:
    out = sys.argv[1]
    analyze_one = cli._analyze_one

    @functools.wraps(analyze_one)
    def timed(path_str, cfg):
        t0 = time.perf_counter()
        row = analyze_one(path_str, cfg)
        seconds = time.perf_counter() - t0
        with open(out, "a", encoding="utf-8") as fh:
            fh.write(f"{row['walk_id']} {seconds!r}\n")
        return row

    cli._analyze_one = timed
    return cli.main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
