"""Artifact writers: CSV tables and line-delimited JSON records.

Every file embeds the schema version and the full configuration; no
timestamps or environment data, so identical runs produce identical bytes.
"""

import csv
import json

import numpy as np

SCHEMA_VERSION = 1


def _meta(config: dict) -> dict:
    return {"schema_version": SCHEMA_VERSION, "config": config}


def write_csv(path, rows, columns, config: dict):
    """CSV with `#`-prefixed metadata lines, then an RFC-style quoted table."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# schema_version: {SCHEMA_VERSION}\n")
        fh.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
        writer = csv.writer(fh, quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format(row.get(c, "")) for c in columns])


def _format(value):
    if isinstance(value, float):
        return f"{value:.12g}"
    return value


def write_jsonl(path, records, config: dict):
    """First line holds schema + config; one JSON record per following line."""
    with open(path, "w") as fh:
        fh.write(json.dumps(_meta(config), sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    return str(value)


def columns_for(rows):
    cols = []
    for row in rows:
        for key in row:
            if key not in cols:
                cols.append(key)
    return cols


def write_rows(path_base, rows, fmt: str, config: dict):
    """Write rows in the requested format; returns the path written."""
    if fmt == "json":
        path = f"{path_base}.jsonl"
        write_jsonl(path, rows, config)
    else:
        path = f"{path_base}.csv"
        write_csv(path, rows, columns_for(rows), config)
    return path
