"""The driver's entry point (``BENCHMARK.json`` ``command``).

``python3 benchmarks/e20/run.py --workload W --seed N --seconds T
--trace 0|1`` from the root of a checkout. Everything else is in
``cli.contract_main``; this file only makes the package importable when
it is run as a script, and refuses to run where the program is missing.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e20: no program to measure: {ROOT / 'src' / 'repro'} "
                 "is missing")
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.e20.cli import contract_main
    sys.exit(contract_main())
