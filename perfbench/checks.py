"""Correctness digests, pinned values, and the environment record.

Every result the benchmark sees is reduced to a sha256 over the
program's own canonical JSON (sorted keys, no whitespace) and compared
with a digest pinned in ``pins.json`` for its (scale, benchmark,
config).  A cell's digest covers every simulated statistic of all of
its versions, so a faster simulator must reproduce it exactly.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

PINS = Path(__file__).resolve().parent / "pins.json"

#: Prediction fields that do not depend on the requested miss floor.
_PREDICT_FIELDS = (
    "benchmark",
    "category",
    "scale",
    "machine",
    "cache_lines",
    "line_size",
    "memory_refs",
    "miss_ratio",
    "mrc",
    "compiler_on_regions",
    "tilings",
)


def _sha(payload) -> str:
    from repro.service.cells import canonical_json

    return hashlib.sha256(canonical_json(payload)).hexdigest()


def cell_digest(run_json: dict) -> str:
    """Digest of one cell (``run_to_json`` form of a BenchmarkRun)."""
    return _sha(run_json)


def run_digest(run) -> str:
    from repro.service.cells import run_to_json

    return cell_digest(run_to_json(run))


def profile_digest(profile_json: dict) -> str:
    """Digest of a profile job's ``profile`` document."""
    return _sha(profile_json)


def predict_digest(payload: dict) -> str:
    """Digest of a prediction, less its timing and miss-floor fields."""
    stable = {key: payload.get(key) for key in _PREDICT_FIELDS}
    stable["regions"] = [
        {
            key: region.get(key)
            for key in ("index", "compiler_on", "miss_ratio", "memory_refs")
        }
        for region in payload.get("regions", [])
    ]
    return _sha(stable)


def cell_id(benchmark: str, config: str) -> str:
    return f"{benchmark}|{config}"


def load_pins(path=PINS) -> dict:
    with open(path) as handle:
        return json.load(handle)


class Tally:
    """Counts checked operations and the ones that failed (thread-safe)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self._lock = threading.Lock()

    def check(self, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.notes.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(root: Path, workload: str, seed: int, scale: str) -> dict:
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": _git_commit(root),
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "argv": sys.argv[1:],
    }
