"""``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``.

The command ``BENCHMARK.json`` names.  Puts the checkout and its ``src``
on ``sys.path`` (the program is pure Python and is run from source),
then hands over to :mod:`benchmarks.perf.cli`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.perf.cli import main

    sys.exit(main(sys.argv[1:]))
