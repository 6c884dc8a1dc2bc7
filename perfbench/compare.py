"""Summarise benchmark result records, and compare two sets of them.

    python3 perfbench/compare.py .bench_out/results [OTHER_RESULTS_DIR]

Reads the `*.json` records `run.py` writes. For each workload and
metric it prints the run count, the median and the quartile spread
(third minus first quartile over the median). Given a second directory
it also prints how far each median moved, in the metric's worse
direction, against the bound in BENCHMARK.json. Results from different
kernel backends are never compared: the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(directory: Path) -> list[dict]:
    records = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    if not records:
        raise SystemExit(f"error: no result records in {directory}")
    return records


def by_metric(records: list[dict]) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for rec in records:
        for name, value in rec["metrics"].items():
            values[(rec["workload"], name)].append(value)
    return values


def spread(values: list[float]) -> float:
    """Quartile distance over the median; 0 when fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def worse_by(base: float, new: float, better: str) -> float:
    """Share by which `new` is worse than `base`; negative when better."""
    if base == 0:
        return 0.0
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    backends = {rec["context"]["backend"] for recs in sets for rec in recs}
    if len(backends) > 1:
        print(f"error: results come from different kernel backends "
              f"({', '.join(sorted(backends))}); refusing to compare",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    first = by_metric(sets[0])
    second = by_metric(sets[1]) if len(sets) == 2 else {}
    for key in sorted(first):
        workload, name = key
        a = first[key]
        line = (f"{workload:12s} {name:26s} n={len(a):2d} "
                f"median={statistics.median(a):<12.6g} "
                f"spread={spread(a):.3f}")
        metric = declared.get(name, {})
        if "bound" in metric:
            line += f" bound={metric['bound']}"
        if key in second:
            b = second[key]
            moved = worse_by(statistics.median(a), statistics.median(b),
                             metric.get("better", "lower"))
            line += (f" | n={len(b):2d} median={statistics.median(b):<12.6g}"
                     f" spread={spread(b):.3f} worse_by={moved:+.3f}")
            if "bound" in metric and moved > metric["bound"]:
                line += " OVER BOUND"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
