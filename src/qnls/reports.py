"""Artifact writers: deterministic CSV, JSON envelopes, gnuplot tables.

CSV rule: identical config + seed must reproduce byte-identical files, so
CSVs carry no timestamps, floats are printed with '%.17g', newlines are LF,
encoding UTF-8.  The JSON report envelope does carry a timestamp (it is a
log, not a dataset); the config echo and its sha256, which leaves out
the output directory, make reruns attributable.  JSON files are strict
JSON: a NaN or infinite value is written as null."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict
from pathlib import Path


def fmt(value) -> str:
    """Canonical cell formatting for CSV/gnuplot output."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, int):
        return str(value)
    return str(value)


def write_csv(path, header, rows) -> Path:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(c) for c in row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return p


def write_gnuplot(path, comment, columns, rows) -> Path:
    """Whitespace-separated table with a commented header, for plotting."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {comment}", "# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(fmt(c) for c in row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return p


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "tolist"):
        return _jsonable(obj.tolist())
    if isinstance(obj, float) and not math.isfinite(obj):  # NaN and +-inf -> null, valid JSON
        return None
    return obj


def config_sha256(cfg) -> str:
    """sha256 of the resolved config without [run] out: the output
    directory does not change the experiment."""
    settings = _jsonable(cfg)
    settings["run"] = {key: value for key, value in settings["run"].items() if key != "out"}
    blob = json.dumps(settings, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def write_report(path, experiment, cfg, results, passed=None) -> Path:
    """JSON envelope around one experiment's outputs."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "experiment": experiment,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "config": _jsonable(cfg),
        "config_sha256": config_sha256(cfg),
        "results": _jsonable(results),
    }
    if passed is not None:
        doc["passed"] = bool(passed)
    p.write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8", newline="\n")
    return p


def write_trajectory(directory, name, trajectory) -> tuple:
    """Columnar snapshot dump plus a JSON sidecar describing it.

    The CSV holds one row per grid index: the frequency, then re/im pairs
    of the saved coefficient vectors in time order.  The sidecar echoes the
    run configuration, the save times, the L2 history, and the sha256 of
    the CSV bytes."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    grid = trajectory.states[0].grid
    header = ["xi"]
    for j in range(len(trajectory.times)):
        header += [f"re_{j}", f"im_{j}"]
    rows = []
    for i in range(grid.n):
        row = [float(grid.frequencies[i])]
        for state in trajectory.states:
            row += [float(state.coeffs[i].real), float(state.coeffs[i].imag)]
        rows.append(row)
    csv_path = write_csv(directory / f"{name}.csv", header, rows)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    sidecar = {
        "name": name,
        "config": _jsonable(asdict(trajectory.config)),
        "times": list(trajectory.times),
        "l2_history": list(trajectory.l2_history),
        "csv_sha256": digest,
        "n_points": grid.n,
        "length": grid.length,
    }
    side_path = directory / f"{name}.json"
    side_path.write_text(json.dumps(sidecar, sort_keys=True, indent=2, allow_nan=False) + "\n", encoding="utf-8",
                         newline="\n")
    return csv_path, side_path
