"""Paper-pipeline benchmark: wall time of the figure sweeps, per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload spec-sweep --seed 1234 \\
        --seconds 30 --trace 0

``--trace 0`` repeats the workload, untraced, until ``--seconds`` have
passed and reports the end-to-end metrics (medians over the
repetitions; set-up time is the median of several fresh processes).
``--trace 1`` alternates untraced and traced repetitions and reports
the per-layer metrics, writing the spans of the last traced repetition
to ``perfbench/out/``. Every experiment of every repetition is checked
(pinned digest at the default seed, repeat digest otherwise, and the
conservation identities). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from perfbench import measure, pipeline
    if args.workload not in pipeline.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.WORKLOADS)}", file=sys.stderr)
        return 2
    return measure.main(args)


if __name__ == "__main__":
    sys.exit(main())
