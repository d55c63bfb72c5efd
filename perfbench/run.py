"""Run one isobath benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload terminal-mission --seed 0 \
        --seconds 30 --trace 0

The last line of standard output is the result object; the line before
it is the full report. See perfbench/README.md.
"""

import os
import sys
from pathlib import Path

# BLAS threads are fixed when numpy loads, so pin them first: two
# missions on two cores ran 4x slower each with OpenBLAS's default.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/isobath/__init__.py", "configs/default.json")

if __name__ == "__main__":
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(
            f"perfbench: {', '.join(missing)} not found under {ROOT}; "
            "run from the root of an isobath checkout",
            file=sys.stderr,
        )
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))
    from bench import main

    sys.exit(main(sys.argv[1:]))
