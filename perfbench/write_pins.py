"""Regenerate ``pins.json``: the digests every benchmark result must match.

Usage::

    python3 perfbench/write_pins.py

Computes each grid cell with the offline runner, each profile job and
each prediction through the same functions the service calls, at TINY
and SMALL scale.  Run it only when a change is meant to alter simulated
results, and say so in the change; a speed-only change must leave the
pins untouched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def scale_pins(scale) -> dict:
    import checks
    from repro.analytic.predict import predict_benchmark
    from repro.core.runner import run_suite
    from repro.params import SENSITIVITY_CONFIGS
    from repro.service.cells import decompose
    from run import BENCHMARKS, COLD_CONFIGS, GRID_CONFIGS, PROFILE

    configs = list(dict.fromkeys(GRID_CONFIGS + COLD_CONFIGS))
    suite = run_suite(
        scale,
        benchmarks=list(BENCHMARKS),
        configs={name: SENSITIVITY_CONFIGS[name] for name in configs},
        jobs=2,
    )
    if suite.failures:
        raise SystemExit(suite.failure_report())
    pins: dict = {"cell": {}, "profile": {}, "predict": {}}
    for config in configs:
        for benchmark in BENCHMARKS:
            run = suite.sweeps[config].runs[benchmark]
            pins["cell"][checks.cell_id(benchmark, config)] = (
                checks.run_digest(run)
            )
    for benchmark in BENCHMARKS:
        for config in COLD_CONFIGS:
            body = dict(
                PROFILE, kind="profile", benchmark=benchmark, config=config
            )
            (spec,) = decompose(body, scale).specs
            fn, make_task = spec.worker()
            profile = spec.payload_json(fn(make_task(0, None)))
            pins["profile"][checks.cell_id(benchmark, config)] = (
                checks.profile_digest(profile)
            )
        pins["predict"][benchmark] = checks.predict_digest(
            predict_benchmark(benchmark, scale)
        )
    return pins


def main() -> int:
    from repro.workloads.base import SMALL, TINY

    pins = {scale.name: scale_pins(scale) for scale in (TINY, SMALL)}
    path = HERE / "pins.json"
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
