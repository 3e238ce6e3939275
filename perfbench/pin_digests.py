"""Regenerate ``digests.json``: the report digests at the default seed.

Usage: ``python3 perfbench/pin_digests.py``. Runs every workload once
at the default seed and refuses to pin a report that breaks a
conservation identity. Re-pin only when a change is meant to alter the
simulated results.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, pipeline  # noqa: E402


def main() -> int:
    pins = {}
    for workload in pipeline.WORKLOADS:
        pins[workload] = {}
        for experiment in pipeline.prepare(workload, pipeline.DEFAULT_SEED):
            report = pipeline.run_experiment(experiment)
            broken = checks.identity_violations(report.metrics)
            if broken:
                print(f"{experiment.name}: {'; '.join(broken)}",
                      file=sys.stderr)
                return 1
            pins[workload][experiment.name] = checks.report_digest(report)
    checks.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True)
                                + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
