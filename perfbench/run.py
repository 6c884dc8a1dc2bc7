"""Study benchmark for rfpe-lab.

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory. Every run first passes the correctness gate
(kernel refit against the grid posterior, oracle against the reference
circuit and the analytic fringe), then:

- `--trace 0` runs the workload's default study through
  `scenarios.run_scenario_config` again and again for `--seconds`, with
  nothing wrapped, and checks each study's acceptance clauses, its
  manifest and that every repeat wrote the same bytes. Set-up time is
  then measured in fresh interpreters. It prints the end-to-end metrics.
- `--trace 1` runs the study untraced at the workload's worker count,
  untraced at one worker when that differs, and traced at one worker
  (pool workers cannot report spans). All three must write the same
  bytes. It prints the per-layer metrics.

Human-readable lines come first; the last line of standard output is
one JSON object. Study outputs, spans and a result record with the run
context go under `.bench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = ("noise_sweep", "t2_sweep_w2", "fidelity")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "rfpe_lab" / "__init__.py").is_file():
        print(f"error: no rfpe_lab package under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure

    return measure.run(args.workload, args.seed, args.seconds,
                       bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
