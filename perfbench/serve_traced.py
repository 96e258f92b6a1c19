"""Run ``repro serve`` with the per-layer wrappers installed.

Usage::

    python3 perfbench/serve_traced.py SPANS_DIR [repro CLI arguments...]

The service, and every cell worker it forks, appends spans to
``SPANS_DIR/<pid>.jsonl`` (see :mod:`layers`).
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

if __name__ == "__main__":
    import layers
    from repro import cli

    recorder = layers.Recorder(sys.argv[1])
    layers.install(recorder)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        recorder.close()
    raise SystemExit(code)
