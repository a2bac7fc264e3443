"""Name the outputs that differ between two kept digest runs.

    python3 tools/output_diff.py OLD_DIR NEW_DIR

Both directories come from ``tools/protocol_digests.py --keep DIR`` run
in two checkouts on the same seeds. For each CSV (every protocol run's
``metrics.csv`` and ``curves.csv``) the tool prints the largest absolute
and relative difference of ``value`` per (run, metric), and for each
``joint-metrics-seed-N.json`` the same per estimator output. An
acquisition ``sequence.csv`` is compared by its ``score`` column, unless
its picks (``pool_index``) differ, which the tool names as such; the
largest score difference over all sequences is printed last. Only groups
that differ are printed. Relative differences are |a - b| / max(|a|, |b|).
Exits 1 if anything differs.
"""

from __future__ import annotations

import csv
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np


def _gaps(old, new) -> tuple[float, float]:
    """Largest absolute and relative difference of two value lists."""
    old, new = np.array(old, dtype=float), np.array(new, dtype=float)
    moved = old != new
    gap = np.abs(old[moved] - new[moved])
    with np.errstate(invalid="ignore"):         # inf against a finite value
        rel = gap / np.maximum(np.abs(old[moved]), np.abs(new[moved]))
    rel = np.nan_to_num(rel, nan=np.inf)
    return float(gap.max(initial=0.0)), float(rel.max(initial=0.0))


def _flatten(value) -> list:
    if isinstance(value, list):
        return [v for item in value for v in _flatten(item)]
    return [float(value)]


def _groups(path: Path) -> tuple[list, dict]:
    """Each row's fields but its value, and the values per metric; a
    sequence's rows are its picks and its one group is its scores."""
    if path.suffix == ".json":
        outputs = json.loads(path.read_text())
        return [], {name: _flatten(v) for name, v in outputs.items()}
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    groups = defaultdict(list)
    for row in rows:
        if "metric" in row:
            groups[row["metric"]].append(float(row.pop("value")))
        else:
            groups["score"].append(float(row.pop("score")))
    return rows, groups


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old_dir, new_dir = (Path(a) for a in argv)
    moved = 0
    score_gaps = []
    for old in sorted(old_dir.rglob("*.csv")) + sorted(old_dir.glob("*.json")):
        label = old.relative_to(old_dir)
        (old_rows, old_groups), (new_rows, new_groups) = (
            _groups(old), _groups(new_dir / label))
        if old_rows != new_rows:
            picks = [[row.get("pool_index") for row in rows]
                     for rows in (old_rows, new_rows)]
            print(f"{label}: " + ("pool_index differs" if picks[0] != picks[1]
                                  else "rows differ beyond their values"))
            moved += 1
            continue
        for metric, values in old_groups.items():
            gap, rel = _gaps(values, new_groups[metric])
            if metric == "score":
                score_gaps.append(gap)
            if gap or rel:
                print(f"{label} {metric}: max abs {gap:.3g}, "
                      f"max rel {rel:.3g}")
                moved += 1
    if score_gaps:
        print(f"largest sequence score difference: {max(score_gaps):.3g}")
    print(f"{moved} differing groups", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
