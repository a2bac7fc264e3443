"""Result emission: metrics CSV, curve CSVs, and the run manifest.

Values are written with repr(float(x)), which round-trips exactly, so a
re-run with the same config and seed produces byte-identical CSVs. The
manifest carries timestamps and is deliberately excluded from that
guarantee.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

from ..infometrics import MetricRecord
from .config import RunManifest

CSV_HEADER = ["metric", "name", "value", "trial", "sub_trial", "step", "n",
              "strategy", "branch", "flag"]


def _format_value(value: float) -> str:
    return repr(float(value))


def _format_coord(value) -> str:
    return "" if value is None else str(int(value))


def record_to_row(record: MetricRecord) -> list:
    return [record.metric, record.name, _format_value(record.value),
            _format_coord(record.trial), _format_coord(record.sub_trial),
            _format_coord(record.step), _format_coord(record.n),
            record.strategy, record.branch, record.flag]


def row_to_record(row: dict) -> MetricRecord:
    def coord(key):
        return None if row[key] == "" else int(row[key])

    return MetricRecord(metric=row["metric"], name=row["name"],
                        value=float(row["value"]), trial=coord("trial"),
                        sub_trial=coord("sub_trial"), step=coord("step"),
                        n=coord("n"), strategy=row["strategy"],
                        branch=row["branch"], flag=row["flag"])


def write_records(records, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for record in records:
            writer.writerow(record_to_row(record))


def read_records(path) -> list:
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}")
        return [row_to_record(row) for row in reader]


def emit_results(records, manifest: RunManifest, out_dir) -> list:
    """Write metrics.csv, curves.csv, and manifest.json under out_dir.

    curves.csv is the step-indexed subset of the records, enough to
    re-plot per-step trajectories without re-filtering the full table.
    Returns the written paths.
    """
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        records = list(records)
        metrics_path = out / "metrics.csv"
        write_records(records, metrics_path)
        curves_path = out / "curves.csv"
        write_records([r for r in records if r.step is not None], curves_path)
        manifest = replace(manifest, artifacts=("metrics.csv", "curves.csv"))
        manifest_path = out / "manifest.json"
        manifest_path.write_text(manifest.to_json())
    except OSError as err:
        raise OSError(f"cannot write results under {out}: {err}") from err
    return [metrics_path, curves_path, manifest_path]
