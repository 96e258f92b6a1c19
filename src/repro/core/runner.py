"""High-level suite driver: benchmarks × configurations.

``jobs=1`` (the default) simulates every cell in this process, one
after another — the reference run every other path must reproduce.
With ``jobs > 1`` the (benchmark × configuration) grid fans out over
:func:`repro.core.parallel.run_grid`, a pool of worker processes with
per-cell timeouts, retries, and fault injection.  Both paths draw their
cells from the same source, so they prepare, key, restore, checkpoint,
and time cells identically, and their results are bit-identical.

Memory discipline: benchmarks are prepared lazily, one at a time, so
at most a few benchmarks' traces are alive at once.

Resilience: pass ``store=`` (a :class:`~repro.core.runstore.RunStore`
or a directory path) and every completed cell is checkpointed the
moment it finishes; with ``resume=True`` (the default when a store is
given) a re-run skips cells whose stored results verify, so a sweep
killed mid-grid restarts where it left off and produces a suite
bit-identical to an uninterrupted run.  Under ``on_failure="record"``
(default) a cell that exhausts its retries becomes a structured
:class:`~repro.core.parallel.CellFailure` on ``SuiteResult.failures``
and the sweep completes with partial results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.compiler.optimizer import LocalityOptimizer
from repro.core.parallel import (
    DEFAULT_BACKOFF,
    DEFAULT_RETRIES,
    CellFailure,
    _GridCells,
    resolve_jobs,
    run_grid,
)
from repro.core.faults import FaultPlan
from repro.core.runstore import RunStore
from repro.core.sweep import SweepResult
from repro.core.versions import MECHANISMS, prepare_codes
from repro.params import SENSITIVITY_CONFIGS, MachineParams, base_config
from repro.workloads.base import SMALL, Scale
from repro.workloads.registry import all_specs, get_spec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.sweeptrace import SweepTimeline

__all__ = ["SuiteResult", "run_suite"]


@dataclass
class SuiteResult:
    """Results for a set of benchmarks across configurations.

    ``failures`` lists cells that exhausted their retry budget under
    ``on_failure="record"``; such cells are absent from their sweep's
    ``runs``, so averages/figures are computed over the surviving
    benchmarks (a partial-results report, not an exception).
    """

    scale_name: str
    sweeps: dict[str, SweepResult] = field(default_factory=dict)
    failures: list[CellFailure] = field(default_factory=list)

    def sweep(self, config_name: str) -> SweepResult:
        return self.sweeps[config_name]

    def config_names(self) -> list[str]:
        return list(self.sweeps)

    @property
    def complete(self) -> bool:
        return not self.failures

    def failure_report(self) -> str:
        """Human-readable summary of permanently failed cells."""
        if not self.failures:
            return "all cells completed"
        lines = [f"{len(self.failures)} cell(s) failed permanently:"]
        lines += [f"  - {failure.describe()}" for failure in self.failures]
        return "\n".join(lines)


def run_suite(
    scale: Scale = SMALL,
    benchmarks: Optional[Sequence[str]] = None,
    configs: Optional[dict[str, Callable[[], MachineParams]]] = None,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = 1,
    *,
    store: Union[RunStore, str, Path, None] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    faults: Optional[FaultPlan] = None,
    on_failure: str = "record",
    timeline: Optional["SweepTimeline"] = None,
) -> SuiteResult:
    """Run the benchmark suite across machine configurations.

    ``configs`` defaults to all six Table 3 rows; machines are scaled
    by the scale's divisor so the working-set/cache ratio matches the
    paper's full-size runs (see DESIGN.md).  ``benchmarks`` defaults to
    all 13 names in Table 2 order.

    ``jobs`` controls parallelism: 1 (the default) runs sequentially
    in-process; N > 1 fans the grid over N worker processes; ``None``
    resolves from ``REPRO_JOBS`` / CPU count.  Results are identical
    for every job count — only wall-clock changes.

    ``store``/``resume`` checkpoint and skip completed cells in both
    modes.  ``timeout``/``retries``/``backoff``/``faults``/
    ``on_failure`` harden the worker pool (see
    :func:`repro.core.parallel.run_grid`); the sequential path executes
    cells directly in this process, so per-cell kill/retry (and fault
    injection, which targets worker cells) does not apply there.

    ``timeline`` optionally collects wall-clock
    :class:`~repro.telemetry.sweeptrace.WallSpan` records (prepare
    steps, cell attempts, restores) for Chrome-trace export; observing
    the sweep never changes its results.
    """
    if configs is None:
        configs = dict(SENSITIVITY_CONFIGS)
    specs = (
        [get_spec(name) for name in benchmarks]
        if benchmarks is not None
        else all_specs()
    )
    machines = {
        name: factory().scaled(scale.machine_divisor)
        for name, factory in configs.items()
    }
    reference = base_config().scaled(scale.machine_divisor)
    optimizer = LocalityOptimizer(reference)

    def prepare(spec):
        return prepare_codes(spec, scale, reference, optimizer)

    workers = resolve_jobs(jobs)
    if workers > 1:
        grid = run_grid(
            specs,
            machines,
            prepare,
            mechanisms=mechanisms,
            classify_misses=classify_misses,
            jobs=workers,
            progress=progress,
            store=store,
            resume=resume,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            faults=faults,
            on_failure=on_failure,
            timeline=timeline,
        )
    else:
        grid = _GridCells(
            specs,
            machines,
            prepare,
            mechanisms,
            classify_misses,
            store=store,
            resume=resume,
            progress=progress,
            timeline=timeline,
        ).run_in_process()

    # Reassemble in submission order; permanently failed cells land on
    # ``failures`` instead.
    suite = SuiteResult(scale.name)
    for name, machine in machines.items():
        suite.sweeps[name] = SweepResult(machine.name)
    for spec in specs:
        for config_name in machines:
            value = grid[(config_name, spec.name)]
            if isinstance(value, CellFailure):
                suite.failures.append(value)
            else:
                suite.sweeps[config_name].runs[spec.name] = value
    return suite
