"""Record tests/artifacts.json, the manifest of every command's artifacts.

    PYTHONPATH=src python tests/record_artifacts.py

Each command (identity, simulate, decompose, rates, mnorm, lipschitz, subst,
all) runs in process through qnls.cli.main, on perfbench/tiny.cfg and on the
built-in defaults, at seed 1234, into a fresh directory.  For each config
and command the manifest holds the exit code and the sha256 of stdout and
of each CSV, .dat and trajectory file the command writes; it holds the text
behind every digest once, and the numpy version and the machine that
recorded it.  The JSON reports are left out: they carry timestamps and
timings.  tests/test_artifacts.py runs the commands again and compares.

A change that moves a number re-records the manifest and logs each changed
file, with its first differing values old -> new.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = Path(__file__).resolve().parent / "artifacts.json"
COMMANDS = ("identity", "simulate", "decompose", "rates", "mnorm", "lipschitz", "subst", "all")
# the config arguments of each recorded config
CONFIGS = {"tiny": ["--config", str(ROOT / "perfbench" / "tiny.cfg")], "default": []}
SEED = 1234


def platform_key() -> dict:
    """What the artifacts' bits depend on beyond the source: the numpy
    version, the machine architecture and the CPU features numpy dispatches
    its SIMD loops on."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(name for name, on in features.items() if on),
    }


def is_artifact(path: Path) -> bool:
    """A CSV, a gnuplot table or the trajectory's sidecar, not a JSON report."""
    return path.suffix in (".csv", ".dat") or path.name == "trajectory.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_command(config: str, command: str, out_dir: Path) -> tuple:
    """(exit code, stdout, {file name: text} of the artifacts) of one
    command run in process on one recorded config."""
    from qnls.cli import main

    argv = [command, *CONFIGS[config], "--seed", str(SEED), "--out", str(out_dir)]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(out_dir.iterdir()) if is_artifact(p)}
    return code, stdout.getvalue(), files


def record() -> dict:
    runs, contents = {}, {}
    for config in CONFIGS:
        for command in COMMANDS:
            with tempfile.TemporaryDirectory() as tmp:
                code, stdout, files = run_command(config, command, Path(tmp))
            digests = {}
            for name, text in {"stdout": stdout, **files}.items():
                digests[name] = sha256(text)
                contents[digests[name]] = text.splitlines()
            runs.setdefault(config, {})[command] = {"exit": code, "sha256": digests}
    return {"platform": platform_key(), "seed": SEED, "runs": runs, "contents": contents}


if __name__ == "__main__":
    manifest = record()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    files = sum(len(run["sha256"]) - 1 for runs in manifest["runs"].values() for run in runs.values())
    print(f"wrote {MANIFEST.name}: {files} artifacts of {len(COMMANDS)} commands on {len(CONFIGS)} configs",
          file=sys.stderr)
