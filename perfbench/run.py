"""fracgraph benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a fracgraph checkout.  The environment is pinned here,
before numpy is imported: BLAS runs one thread, and FRACGRAPH_OUTPUT_DIR is
removed because it would override the benchmark's --output-dir.  See
perfbench/README.md for the workloads and metrics.
"""

import os
import sys
from pathlib import Path


def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    os.environ.pop("FRACGRAPH_OUTPUT_DIR", None)
    sys.dont_write_bytecode = True
    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "fracgraph" / "__init__.py").is_file():
        print(f"perfbench: no fracgraph sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
