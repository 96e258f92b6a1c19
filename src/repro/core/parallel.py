"""Fault-tolerant cell execution for the sweep grid.

The paper's evaluation grid — 13 benchmarks × 6 machine configurations
× 11 version/mechanism simulations — is embarrassingly parallel: every
cell is a fresh machine instance timing a pre-generated trace.
:func:`execute_cell` is the one place a cell runs in a worker process,
and it survives the ways long sweeps actually die:

* **Per-cell timeouts** — a hung worker (deadlock, runaway input) is
  killed at ``timeout`` seconds and the cell retried; a
  ``ProcessPoolExecutor`` cannot do this (``future.result(timeout=...)``
  abandons the worker but leaves it running), which is why every cell
  gets a process of its own.
* **Bounded retry with exponential backoff** — crashed (``os._exit``,
  OOM kill, segfault), raising, and timed-out cells are retried up to
  ``retries`` times, waiting ``backoff * 2**attempt`` (capped) between
  attempts.
* **Graceful degradation** — a cell that exhausts its retries becomes a
  structured :class:`CellFailure`; if worker processes cannot be
  spawned at all, the cell runs in-process.
* **Cancellation** — a ``threading.Event`` kills the in-flight worker
  within one poll period and skips any pending backoff.

:func:`run_grid` is a bounded pool of ``jobs`` threads over
:func:`execute_cell` (the sweep service runs its cold cells on it too).
Under ``on_failure="record"`` (the default) the sweep *completes* with
partial results instead of throwing hours of finished cells away;
:class:`SweepInterrupted`, any other exception, or Ctrl-C sets the
pool's shared cancel event, so in-flight workers are killed, not left
running.

The grid and the in-process reference sweep (``run_suite(jobs=1)``)
draw cells from one source, :class:`_GridCells`.  Benchmarks are
prepared lazily: the parent runs the optimizer + trace generation for
benchmark *k+1* while workers simulate benchmark *k*.  With a
:class:`~repro.core.runstore.RunStore` attached, every completed cell
is checkpointed (atomic write, embedded checksum) the moment it
arrives, and ``resume=True`` skips cells whose stored results verify,
so a killed sweep restarts where it left off and ends bit-identical to
an uninterrupted run.  Results are keyed ``(config_name,
benchmark_name)`` and reassembled in submission order by the callers,
so the output is independent of worker scheduling, retries, and resume
boundaries.  Recovery paths are exercised end-to-end by the
fault-injection harness (:mod:`repro.core.faults`, ``REPRO_FAULTS``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Union

from repro.core.experiment import (
    BenchmarkRun,
    expected_version_keys,
    run_benchmark,
    simulate_trace,
)
from repro.core.faults import FaultPlan, corrupt_stored_entry
from repro.core.runstore import RunStore, trace_checksum
from repro.core.versions import MECHANISMS, BenchmarkCodes
from repro.params import MachineParams
from repro.workloads.base import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.sweeptrace import SweepTimeline

__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_RETRIES",
    "CellAttempt",
    "CellFailure",
    "GridValue",
    "SweepInterrupted",
    "execute_cell",
    "resolve_jobs",
    "run_benchmark_parallel",
    "run_grid",
]

#: Default attempt budget: 1 initial try + 2 retries per cell.
DEFAULT_RETRIES = 2
#: First retry delay in seconds; doubles per attempt, capped below.
DEFAULT_BACKOFF = 0.25
_BACKOFF_CAP = 5.0
#: Upper bound on one worker poll, so deadlines and cancels act promptly.
_POLL_SECONDS = 0.5


def resolve_jobs(jobs: Optional[int], default: Optional[int] = None) -> int:
    """Number of worker processes to use.

    ``None`` consults the ``REPRO_JOBS`` environment variable, falling
    back to ``default`` (when given) and then ``os.cpu_count()``.
    Non-integer and non-positive values (from any source) raise
    ``ValueError`` — silently clamping ``REPRO_JOBS=0`` to one worker
    used to hide misconfigured CI environments.

    ``default`` exists for long-lived callers (the sweep service) that
    resolve a baseline worker count once at startup and then thread an
    explicit per-request override as a *parameter*; mutating
    ``REPRO_JOBS`` process-globally to influence nested calls is never
    required.
    """
    source = "jobs"
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if env:
            source = "REPRO_JOBS"
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"REPRO_JOBS must be an integer, got {env!r}"
                ) from None
        elif default is not None:
            source = "default"
            jobs = default
        else:
            jobs = os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"{source} must be a positive integer, got {jobs}")
    return jobs


@dataclass(frozen=True)
class CellFailure:
    """A grid cell that exhausted its retry budget.

    Recorded in the result grid in place of a :class:`BenchmarkRun` so
    the sweep can complete with partial results; ``kind`` is ``error``
    (the cell raised), ``timeout`` (killed at the per-cell deadline),
    ``crash`` (the worker died without reporting), ``cancelled`` (the
    caller's cancel event killed it — :func:`execute_cell` only), or
    ``degraded`` (the service's circuit breaker refused to execute it).
    ``duration`` is the
    wall-clock seconds from the cell's first launch to its permanent
    failure (all attempts plus backoff waits), so failure reports and
    the sweep timeline show what the dead cell actually cost.
    """

    benchmark: str
    config: str
    kind: str
    attempts: int
    message: str
    duration: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.benchmark} on {self.config}: {self.kind} after "
            f"{self.attempts} attempt(s) in {self.duration:.1f}s — "
            f"{self.message}"
        )


class SweepInterrupted(RuntimeError):
    """A cell failed permanently under ``on_failure="raise"``.

    Completed cells already checkpointed to the run store survive the
    abort; rerunning with ``resume=True`` picks up from them.
    """

    def __init__(self, failure: CellFailure):
        super().__init__(failure.describe())
        self.failure = failure


#: What one grid slot holds once the sweep finishes.
GridValue = Union[BenchmarkRun, CellFailure]


@dataclass(frozen=True)
class CellAttempt:
    """Outcome of one execution attempt of a single cell.

    ``status`` is ``ok``, ``error``, ``crash``, or ``timeout``;
    ``fallback`` marks an attempt that ran in-process because no worker
    could be spawned.  Attempts are numbered from 1.
    """

    attempt: int
    status: str
    seconds: float
    message: str = ""
    fallback: bool = False


def _check_budget(retries: int, timeout: Optional[float]) -> None:
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")


def _backoff_delay(backoff: float, failed_attempts: int) -> float:
    """Seconds to wait after ``failed_attempts`` failures (>= 1)."""
    return min(backoff * (2 ** (failed_attempts - 1)), _BACKOFF_CAP)


def execute_cell(
    fn: Callable,
    make_task: Callable[[int, Optional[FaultPlan]], tuple],
    *,
    benchmark: str,
    config: str,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    plan: Optional[FaultPlan] = None,
    on_attempt: Optional[Callable[[CellAttempt], None]] = None,
    cancel: Optional["threading.Event"] = None,
):
    """Run one cell in its own worker process with full resilience.

    The only code that runs a cell in a worker process, for the sweep
    grid (:func:`run_grid`) and the sweep service alike: the cell runs
    in a child process (killable at ``timeout``), crashed/raising/
    timed-out attempts are retried up to ``retries`` times with
    exponential backoff, an unspawnable worker falls back to in-process
    execution (fault plan stripped), and a cell that exhausts its
    budget returns a structured :class:`CellFailure` instead of raising.

    ``fn`` must be a picklable module-level worker entry;
    ``make_task(attempt, plan)`` builds its (picklable) task tuple per
    attempt so deterministic fault injection sees the attempt number.
    ``on_attempt`` is invoked from the calling thread after every
    attempt (including the successful one) — the sweep service streams
    these as per-cell job events.

    ``cancel`` (a ``threading.Event``, settable from any thread) aborts
    the cell cooperatively: a set event kills the in-flight worker
    process within one poll period, skips any pending backoff wait, and
    returns a :class:`CellFailure` of kind ``"cancelled"`` — never
    retried.  This is the kill path job cancellation, per-job deadlines,
    graceful drain, and aborted grids all ride.

    Returns ``(value_or_CellFailure, attempts)``.  Blocking: callers
    that need concurrency run it from threads or worker pools.
    """
    _check_budget(retries, timeout)
    attempts: list[CellAttempt] = []

    def note(record: CellAttempt) -> CellAttempt:
        attempts.append(record)
        if on_attempt is not None:
            on_attempt(record)
        return record

    def cancelled_failure(started: float) -> CellFailure:
        note(
            CellAttempt(
                attempt + 1,
                "cancelled",
                time.monotonic() - started,
                "cancelled",
            )
        )
        return CellFailure(
            benchmark=benchmark,
            config=config,
            kind="cancelled",
            attempts=attempt + 1,
            message="cell cancelled",
            duration=time.monotonic() - first_started,
        )

    first_started = time.monotonic()
    attempt = 0
    while True:
        started = time.monotonic()
        if cancel is not None and cancel.is_set():
            return cancelled_failure(started), attempts
        fallback = False
        try:
            proc, conn = _start_worker(fn, make_task(attempt, plan))
        except OSError:
            # Broken pool: run in-process with faults stripped (an
            # os._exit fired here would kill the whole process).
            fallback = True
            try:
                value = fn(make_task(attempt, None))
            except Exception as exc:  # noqa: BLE001 - report, don't die
                status: str = "error"
                message = f"{type(exc).__name__}: {exc}"
            else:
                note(
                    CellAttempt(
                        attempt + 1,
                        "ok",
                        time.monotonic() - started,
                        fallback=True,
                    )
                )
                return value, attempts
        else:
            deadline = (
                started + timeout if timeout is not None else None
            )
            while True:
                wait_for = _POLL_SECONDS
                if deadline is not None:
                    wait_for = min(
                        wait_for, max(0.0, deadline - time.monotonic())
                    )
                ready = _connection_wait([conn], timeout=wait_for)
                if ready:
                    try:
                        status, value = conn.recv()
                    except (EOFError, OSError):
                        proc.join(1.0)
                        status, value = (
                            "crash",
                            f"worker died without reporting "
                            f"(exit code {proc.exitcode})",
                        )
                    break
                if cancel is not None and cancel.is_set():
                    _stop_worker(proc)
                    conn.close()
                    return cancelled_failure(started), attempts
                if deadline is not None and time.monotonic() >= deadline:
                    _stop_worker(proc)
                    status, value = (
                        "timeout",
                        f"cell exceeded the {timeout:g}s per-cell timeout",
                    )
                    break
            conn.close()
            proc.join(1.0)
            if status == "ok":
                note(CellAttempt(attempt + 1, "ok", time.monotonic() - started))
                return value, attempts
            message = value
        elapsed = time.monotonic() - started
        note(CellAttempt(attempt + 1, status, elapsed, message, fallback))
        attempt += 1
        if attempt > retries:
            failure = CellFailure(
                benchmark=benchmark,
                config=config,
                kind=status,
                attempts=attempt,
                message=message,
                duration=time.monotonic() - first_started,
            )
            return failure, attempts
        delay = _backoff_delay(backoff, attempt)
        if cancel is not None:
            if cancel.wait(delay):
                return cancelled_failure(time.monotonic()), attempts
        else:
            time.sleep(delay)


def _slim_codes(codes: BenchmarkCodes) -> BenchmarkCodes:
    """Copy ``codes`` without the compiler reports.

    The reports reference IR nodes (loops, expression trees) that are
    expensive to pickle and that no simulation cell needs.
    """
    return BenchmarkCodes(
        name=codes.name,
        category=codes.category,
        scale=codes.scale,
        base_trace=codes.base_trace,
        optimized_trace=codes.optimized_trace,
        selective_trace=codes.selective_trace,
        optimization=None,
        markers=None,
        regions=None,
    )


def _run_cell(task) -> BenchmarkRun:
    """Worker entry: simulate all versions of one benchmark × config.

    ``plan``/``attempt`` drive deterministic fault injection; a ``None``
    plan (the normal case, and always the in-process fallback) runs the
    cell untouched.
    """
    codes, machine, mechanisms, classify_misses, config_name, attempt, plan = task
    if plan is not None:
        plan.apply_execution(codes.name, config_name, attempt)
    return run_benchmark(codes, machine, mechanisms, classify_misses)


def _simulate_cell(task):
    """Worker entry: one (trace, machine, mechanism) simulation."""
    trace, machine, mechanism, initially_on, classify_misses = task
    return simulate_trace(trace, machine, mechanism, initially_on, classify_misses)


def _cell_worker(conn, fn, task) -> None:
    """Child-process main: run ``fn(task)``, report through the pipe."""
    try:
        result = fn(task)
    except BaseException as exc:  # noqa: BLE001 - report, parent decides
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        finally:
            conn.close()
        return
    conn.send(("ok", result))
    conn.close()


def _mp_context():
    """Prefer fork (cheap, no re-import); everything is spawn-safe too."""
    if "fork" in mp.get_all_start_methods():
        return mp.get_context("fork")
    return mp.get_context()


def _start_worker(fn, task):
    """Spawn one worker; returns (process, parent_conn).

    Module-level so tests can monkeypatch it to simulate a broken pool
    (``OSError`` here triggers the in-process fallback).
    """
    ctx = _mp_context()
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_cell_worker, args=(child_conn, fn, task), daemon=True
    )
    try:
        proc.start()
    except BaseException:
        parent_conn.close()
        raise
    finally:
        child_conn.close()
    return proc, parent_conn


def _stop_worker(proc) -> None:
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():
        proc.kill()
        proc.join(1.0)


@dataclass(frozen=True)
class _GridCell:
    """One (benchmark × configuration) cell that still needs simulating."""

    benchmark: str
    config: str
    payload: tuple  # (codes, machine, mechanisms, classify_misses)
    store_key: Optional[str]

    def task(self, attempt: int, plan: Optional[FaultPlan]) -> tuple:
        """:func:`_run_cell`'s task for one attempt of this cell."""
        return self.payload + (self.config, attempt, plan)


@dataclass
class _GridCells:
    """The cells of a (benchmark × configuration) grid and their bookkeeping.

    Iterating prepares each benchmark lazily in the calling thread
    (``prepare`` once per benchmark, compiler reports dropped), keys
    every cell in the run store, and yields only the cells that still
    need simulating: under ``resume`` a cell whose stored result
    verifies lands in :attr:`results` directly.  :meth:`finish` records
    a completed cell and checkpoints it.  Both grid drivers consume
    this — :func:`run_grid` and :meth:`run_in_process` — so they key,
    restore, checkpoint, and time cells identically.
    """

    specs: Iterable[WorkloadSpec]
    machines: dict[str, MachineParams]
    prepare: Callable[[WorkloadSpec], BenchmarkCodes]
    mechanisms: tuple[str, ...]
    classify_misses: bool
    store: Union[RunStore, str, Path, None]
    resume: bool
    progress: Optional[Callable[[str], None]]
    timeline: Optional["SweepTimeline"]
    results: dict[tuple[str, str], GridValue] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if isinstance(self.store, (str, Path)):
            self.store = RunStore(self.store)

    def notify(self, message: str) -> None:
        if self.progress is not None:
            self.progress(message)

    def __iter__(self) -> Iterator[_GridCell]:
        expected = expected_version_keys(self.mechanisms)
        for spec in self.specs:
            self.notify(f"preparing {spec.name}")
            prep_start = time.monotonic()
            codes = _slim_codes(self.prepare(spec))
            if self.timeline is not None:
                self.timeline.record(
                    f"prepare {spec.name}",
                    spec.name,
                    "prepare",
                    start=prep_start - self.timeline.origin,
                    status="prepare",
                )
            digests = (
                [
                    trace_checksum(codes.base_trace),
                    trace_checksum(codes.optimized_trace),
                    trace_checksum(codes.selective_trace),
                ]
                if self.store is not None
                else []
            )
            for config, machine in self.machines.items():
                store_key = None
                if self.store is not None:
                    store_key = self.store.cell_key(
                        "cell",
                        spec.name,
                        config,
                        scale=codes.scale,
                        machine=machine,
                        mechanisms=self.mechanisms,
                        classify_misses=self.classify_misses,
                        digests=digests,
                    )
                    cached = self.resume and self.store.get(store_key)
                    if (
                        isinstance(cached, BenchmarkRun)
                        and list(cached.results) == expected
                    ):
                        self.results[(config, spec.name)] = cached
                        if self.timeline is not None:
                            self.timeline.restored(spec.name, config)
                        self.notify(
                            f"  {spec.name} on {config} done "
                            "(restored from store)"
                        )
                        continue
                payload = (
                    codes, machine, self.mechanisms, self.classify_misses
                )
                yield _GridCell(spec.name, config, payload, store_key)

    def attempted(
        self, cell: _GridCell, record: CellAttempt, ended: float
    ) -> None:
        """Add one attempt, which ended at monotonic ``ended``, to the
        timeline (when attached)."""
        if self.timeline is None:
            return
        annotations = {"message": record.message} if record.message else {}
        if record.fallback:
            annotations["fallback"] = "in-process"
        end = ended - self.timeline.origin
        self.timeline.record(
            cell.benchmark,
            cell.benchmark,
            cell.config,
            start=end - record.seconds,
            status=record.status,
            attempt=record.attempt,
            end=end,
            **annotations,
        )

    def finish(
        self,
        cell: _GridCell,
        run: BenchmarkRun,
        attempt: int = 0,
        plan: Optional[FaultPlan] = None,
    ) -> None:
        """Record a completed cell and checkpoint it to the store.

        ``plan`` and the 0-based ``attempt`` that produced ``run`` drive
        injected store corruption.
        """
        self.results[(cell.config, cell.benchmark)] = run
        self.notify(f"  {cell.benchmark} on {cell.config} done")
        if self.store is None:
            return
        self.store.put(
            cell.store_key,
            run,
            meta={
                "kind": "cell",
                "benchmark": cell.benchmark,
                "config": cell.config,
                "scale": cell.payload[0].scale.name,
            },
        )
        fault = plan and plan.store_fault(cell.benchmark, cell.config, attempt)
        if fault:
            corrupt_stored_entry(self.store, cell.store_key)
            self.notify(
                f"  injected store corruption on {cell.benchmark} "
                f"on {cell.config} ({fault.spec()})"
            )

    def run_in_process(self) -> dict[tuple[str, str], GridValue]:
        """Simulate every cell in this process, one after another.

        No worker process, kill, retry, or fault injection: this is the
        reference every other execution path must reproduce.
        """
        for cell in self:
            started = time.monotonic()
            run = _run_cell(cell.task(0, None))
            ended = time.monotonic()
            self.attempted(cell, CellAttempt(1, "ok", ended - started), ended)
            self.finish(cell, run)
        return self.results


def run_grid(
    specs: Iterable[WorkloadSpec],
    machines: dict[str, MachineParams],
    prepare: Callable[[WorkloadSpec], BenchmarkCodes],
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    *,
    store: Union[RunStore, str, Path, None] = None,
    resume: bool = True,
    timeout: Optional[float] = None,
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF,
    faults: Optional[FaultPlan] = None,
    on_failure: str = "record",
    timeline: Optional["SweepTimeline"] = None,
) -> dict[tuple[str, str], GridValue]:
    """Fan the (benchmark × configuration) grid over worker processes.

    ``jobs`` threads each run one cell at a time through
    :func:`execute_cell`.  ``prepare`` runs in the calling thread, once
    per benchmark (optimizer + trace generation); cells are pulled only
    when a thread is free, so workers simulate one benchmark while the
    parent prepares the next.

    Returns results keyed ``(config_name, benchmark_name)``; a cell
    that exhausted its retries maps to a :class:`CellFailure` (under
    the default ``on_failure="record"``).  With a ``store``, completed
    cells are checkpointed as they arrive and — when ``resume`` is true
    — cells whose stored result verifies are not re-executed.  The
    ``progress`` callback is invoked only from the calling thread.
    Leaving early — :class:`SweepInterrupted`, an exception from
    ``prepare`` or ``progress``, or Ctrl-C — kills every in-flight
    worker before the exception propagates.

    A :class:`~repro.telemetry.sweeptrace.SweepTimeline` passed as
    ``timeline`` collects wall-clock spans for every prepare step and
    every cell attempt (including retries, timeouts, in-process
    fallbacks, and store restores) for Chrome-trace export.
    """
    from concurrent.futures import ThreadPoolExecutor

    workers = resolve_jobs(jobs)
    _check_budget(retries, timeout)
    if on_failure not in ("record", "raise"):
        raise ValueError(
            f"on_failure must be 'record' or 'raise', got {on_failure!r}"
        )
    plan = faults if faults is not None else FaultPlan.from_env()
    cells = _GridCells(
        specs,
        machines,
        prepare,
        mechanisms,
        classify_misses,
        store=store,
        resume=resume,
        progress=progress,
        timeline=timeline,
    )
    notify = cells.notify
    # Pool threads report through this queue; only the calling thread
    # touches progress, the timeline, the store, and the results.
    events: queue.SimpleQueue = queue.SimpleQueue()
    cancel = threading.Event()
    pool = ThreadPoolExecutor(max_workers=workers)

    def submit(cell: _GridCell) -> None:
        future = pool.submit(
            execute_cell,
            _run_cell,
            cell.task,
            benchmark=cell.benchmark,
            config=cell.config,
            timeout=timeout,
            retries=retries,
            backoff=backoff,
            plan=plan or None,
            on_attempt=lambda record: events.put(
                (cell, record, time.monotonic())
            ),
            cancel=cancel,
        )
        future.add_done_callback(lambda done: events.put((cell, done, 0.0)))

    source = iter(cells)
    running = 0
    try:
        while True:
            while running < workers:
                cell = next(source, None)
                if cell is None:
                    break
                submit(cell)
                running += 1
            if not running:
                break
            cell, item, ended = events.get()
            if isinstance(item, CellAttempt):
                cells.attempted(cell, item, ended)
                if item.fallback:
                    notify(
                        f"  worker unavailable; ran {cell.benchmark} on "
                        f"{cell.config} in-process"
                    )
                if item.status != "ok" and item.attempt <= retries:
                    notify(
                        f"  {cell.benchmark} on {cell.config} {item.status} "
                        f"({item.message}); retrying in "
                        f"{_backoff_delay(backoff, item.attempt):.2f}s "
                        f"(attempt {item.attempt + 1}/{retries + 1})"
                    )
                continue
            running -= 1
            value, attempts = item.result()
            if not isinstance(value, CellFailure):
                cells.finish(cell, value, attempts[-1].attempt - 1, plan)
                continue
            notify(f"  FAILED {value.describe()}")
            if on_failure == "raise":
                raise SweepInterrupted(value)
            cells.results[(cell.config, cell.benchmark)] = value
    finally:
        cancel.set()
        pool.shutdown(wait=True)
    return cells.results


def run_benchmark_parallel(
    codes: BenchmarkCodes,
    machine: MachineParams,
    mechanisms: tuple[str, ...] = MECHANISMS,
    classify_misses: bool = False,
    jobs: Optional[int] = None,
) -> BenchmarkRun:
    """Parallel drop-in for :func:`repro.core.experiment.run_benchmark`.

    Fans the individual version simulations (finer-grained than
    :func:`run_grid`'s cells) over a pool; used by the single-benchmark
    CLI path where there is only one grid cell to split.  Results are
    reassembled in the canonical version-key order, so the returned
    :class:`BenchmarkRun` is indistinguishable from a sequential one.
    """
    from concurrent.futures import ProcessPoolExecutor

    workers = resolve_jobs(jobs)
    if workers <= 1:
        return run_benchmark(codes, machine, mechanisms, classify_misses)
    plan: list[tuple[str, tuple]] = [
        ("base", (codes.base_trace, machine, None, True, classify_misses)),
        ("pure_sw", (codes.optimized_trace, machine, None, True, classify_misses)),
    ]
    for mechanism in mechanisms:
        plan.append(
            (
                f"pure_hw/{mechanism}",
                (codes.base_trace, machine, mechanism, True, False),
            )
        )
        plan.append(
            (
                f"combined/{mechanism}",
                (codes.optimized_trace, machine, mechanism, True, False),
            )
        )
        plan.append(
            (
                f"selective/{mechanism}",
                (codes.selective_trace, machine, mechanism, False, False),
            )
        )
    run = BenchmarkRun(codes.name, codes.category, machine.name)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [(key, pool.submit(_simulate_cell, task)) for key, task in plan]
        for key, future in futures:
            run.results[key] = future.result()
    return run
