"""Per-layer tracing from outside the program.

The program is not instrumented.  :func:`install` replaces public
functions of each layer module with wrappers that time every call and
append one JSON line per span to ``<directory>/<pid>.jsonl``.  Worker
processes forked from a traced process inherit the wrappers and write
their own file.  Each span carries its self time (duration minus the
durations of its direct children on the same thread), so the layer
accounting needs no second pass over the intervals.

:func:`summarize` folds the span files of one traced unit into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import sys
import threading
import time
from pathlib import Path

#: Layers whose self time the bench process accounts for.
ACCOUNTED_LAYERS = (
    "runner",
    "parallel",
    "workloads",
    "compiler",
    "tracegen",
    "runstore",
    "simulate",
    "analytic",
    "telemetry",
    "service",
)

SIM_VERSIONS = (
    "base",
    "pure_sw",
    "pure_hw.bypass",
    "combined.bypass",
    "selective.bypass",
    "pure_hw.victim",
    "combined.victim",
    "selective.victim",
)


class Recorder:
    """Appends spans to a per-process JSON-lines file.

    State is re-created after a fork, before any lock is taken: a
    forked worker must not wait on a lock another thread of its parent
    held at fork time.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.pid = None
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.lock = threading.Lock()
        self.local = threading.local()
        self.handle = None

    def _check_pid(self) -> None:
        if os.getpid() != self.pid:
            self._reset()

    def stack(self) -> list:
        self._check_pid()
        frames = getattr(self.local, "frames", None)
        if frames is None:
            frames = self.local.frames = []
        return frames

    def write(self, record: dict) -> None:
        self._check_pid()
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with self.lock:
            if self.handle is None:
                path = self.directory / f"{self.pid}.jsonl"
                self.handle = open(path, "a", buffering=1)
            self.handle.write(line)

    def close(self) -> None:
        self._check_pid()
        with self.lock:
            if self.handle is not None:
                self.handle.close()
                self.handle = None

    def span(self, name: str, fn, describe=None):
        """Wrap ``fn`` so every call records a ``name`` span."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frames = recorder.stack()
            frames.append(0.0)
            start = time.monotonic()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                children = frames.pop()
                duration = end - start
                if frames:
                    frames[-1] += duration
                record = {
                    "name": name,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "t0": start,
                    "t1": end,
                    "self": duration - children,
                }
                if describe is not None:
                    record.update(describe(args, kwargs, result))
                recorder.write(record)

        traced.__wrapped_by_perfbench__ = fn
        return traced

    def root(self, name: str):
        """Context manager for a load thread's root span."""
        return _Root(self, name)


class _Root:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder = recorder
        self.name = name

    def __enter__(self):
        self.frames = self.recorder.stack()
        self.frames.append(0.0)
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc_info):
        end = time.monotonic()
        children = self.frames.pop()
        self.recorder.write(
            {
                "name": self.name,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "t0": self.start,
                "t1": end,
                "self": end - self.start - children,
            }
        )
        return False


# ----------------------------------------------------------------------
# what each wrapped call records besides its timing


def _trace_version(trace, mechanism, initially_on) -> str:
    kind = str(getattr(trace, "name", "")).rsplit("/", 1)[-1]
    if mechanism is None:
        return "base" if kind == "base" else "pure_sw"
    prefix = {"base": "pure_hw", "optimized": "combined"}.get(
        kind, "selective"
    )
    return f"{prefix}.{mechanism}"


def _assist_on_records(trace, mechanism, initially_on) -> int:
    """Records run with the assist ON, from the trace's HW markers."""
    if mechanism is None:
        return 0
    total = len(trace)
    markers = trace.marker_positions()
    if not len(markers):
        return total if initially_on else 0
    ops = trace.numpy_columns()[0]
    from repro.isa.instructions import Opcode

    on = bool(initially_on)
    previous = 0
    count = 0
    for index in markers.tolist():
        if on:
            count += index - previous
        on = int(ops[index]) == int(Opcode.HW_ON)
        previous = index
    if on:
        count += total - previous
    return count


def _describe_simulate(args, kwargs, result):
    names = ("trace", "machine", "mechanism", "initially_on")
    bound = dict(zip(names, args))
    bound.update({k: v for k, v in kwargs.items() if k in names})
    trace = bound["trace"]
    mechanism = bound.get("mechanism")
    initially_on = bound.get("initially_on", True)
    return {
        "version": _trace_version(trace, mechanism, initially_on),
        "trace": str(getattr(trace, "name", "")),
        "machine": bound["machine"].name,
        "records": len(trace),
        "assist_on": _assist_on_records(trace, mechanism, initially_on),
        "hub": kwargs.get("telemetry") is not None
        or (len(args) > 5 and args[5] is not None),
    }


def _describe_tracegen(args, kwargs, result):
    generator = args[0]
    return {
        "version": str(generator.trace_name).rsplit("/", 1)[-1],
        "records": len(result) if result is not None else 0,
    }


def _describe_put(args, kwargs, result):
    meta = args[3] if len(args) > 3 else kwargs.get("meta") or {}
    size = result.stat().st_size if result is not None else 0
    return {
        "bytes": size,
        "cell": f"{meta.get('benchmark')}|{meta.get('config')}",
    }


def _describe_start_worker(args, kwargs, result):
    from repro.core.parallel import _run_cell

    fn, task = args[0], args[1]
    record = {
        "ship_bytes": len(pickle.dumps(task, pickle.HIGHEST_PROTOCOL))
    }
    if fn is _run_cell:
        record["cell"] = f"{task[0].name}|{task[4]}"
        record["machine"] = task[1].name
    return record


def _describe_run_benchmark(args, kwargs, result):
    return {"benchmark": args[0].name, "machine": args[1].name}


def _describe_execute_cell(args, kwargs, result):
    from repro.core.parallel import _run_cell

    if args[0] is not _run_cell:
        return {"cell": None}
    return {"cell": f"{kwargs.get('benchmark')}|{kwargs.get('config')}"}


def _targets():
    """(owner, attribute, span name, describe) for every traced call."""
    import repro.analytic.predict as predict
    import repro.compiler.optimizer as optimizer
    import repro.compiler.regions.markers as markers
    import repro.core.experiment as experiment
    import repro.core.parallel as parallel
    import repro.core.runner as runner
    import repro.core.runstore as runstore
    import repro.evaluation.profile as profile
    import repro.service.client as client
    import repro.tracegen.interpreter as interpreter
    import repro.workloads.base as workloads

    return [
        (workloads.WorkloadSpec, "instantiate", "workloads.instantiate",
         None),
        (optimizer.LocalityOptimizer, "optimize", "compiler.optimize",
         None),
        (markers, "insert_markers", "compiler.markers", None),
        (interpreter.TraceGenerator, "generate_packed",
         "tracegen.generate", _describe_tracegen),
        (experiment, "simulate_trace", "simulate.trace",
         _describe_simulate),
        (experiment, "run_benchmark", "simulate.run_benchmark",
         _describe_run_benchmark),
        (runstore, "trace_checksum", "runstore.digest", None),
        (runstore.RunStore, "get", "runstore.get", None),
        (runstore.RunStore, "put", "runstore.put", _describe_put),
        (runner, "run_suite", "runner.run_suite", None),
        (parallel, "run_grid", "parallel.run_grid", None),
        (parallel, "execute_cell", "parallel.execute_cell",
         _describe_execute_cell),
        (parallel, "_start_worker", "parallel.start_worker",
         _describe_start_worker),
        (predict, "predict_benchmark", "analytic.predict", None),
        (profile, "profile_benchmark", "telemetry.profile", None),
        (client.ServiceClient, "submit", "service.submit", None),
        (client.ServiceClient, "wait", "service.wait", None),
        (client.ServiceClient, "result_bytes", "service.result", None),
        (client.ServiceClient, "predict", "service.predict", None),
    ]


def install(recorder: Recorder) -> None:
    """Wrap every target, rebinding names other modules imported."""
    import repro.cli  # noqa: F401 - load every module that aliases
    import repro.service.server  # noqa: F401

    for owner, attribute, name, describe in _targets():
        original = getattr(owner, attribute)
        if hasattr(original, "__wrapped_by_perfbench__"):
            continue
        wrapper = recorder.span(name, original, describe)
        setattr(owner, attribute, wrapper)
        if isinstance(owner, type):
            continue
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapper)


# ----------------------------------------------------------------------
# folding spans into per-layer metrics


def read_spans(directory) -> list[dict]:
    spans = []
    for path in sorted(Path(directory).glob("*.jsonl")):
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(json.loads(line))
    return spans


def _total(spans, name) -> float:
    return sum(s["t1"] - s["t0"] for s in spans if s["name"] == name)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def summarize(spans: list[dict], bench_pid: int) -> dict:
    """Per-layer metric values (unit-less numbers) for one traced unit."""
    out: dict[str, float] = {}
    sims = [
        s for s in spans if s["name"] == "simulate.trace" and not s["hub"]
    ]
    for version in SIM_VERSIONS:
        out[f"simulate.{version}_s"] = sum(
            s["t1"] - s["t0"] for s in sims if s["version"] == version
        )
    records = sum(s["records"] for s in sims)
    sim_seconds = sum(s["t1"] - s["t0"] for s in sims)
    out["simulate.records"] = records
    out["simulate.krec_per_s"] = (
        records / sim_seconds / 1000.0 if sim_seconds else 0.0
    )
    out["simulate.assist_on_frac"] = (
        sum(s["assist_on"] for s in sims) / records if records else 0.0
    )

    generated = [s for s in spans if s["name"] == "tracegen.generate"]
    for version in ("base", "optimized", "selective"):
        out[f"tracegen.{version}_s"] = sum(
            s["t1"] - s["t0"] for s in generated if s["version"] == version
        )
    out["tracegen.records"] = sum(s["records"] for s in generated)
    out["workloads.instantiate_s"] = _total(spans, "workloads.instantiate")
    out["compiler.optimize_s"] = _total(spans, "compiler.optimize")
    out["compiler.markers_s"] = _total(spans, "compiler.markers")

    out["runstore.digest_s"] = _total(spans, "runstore.digest")
    out["runstore.get_s"] = _total(spans, "runstore.get")
    out["runstore.put_s"] = _total(spans, "runstore.put")
    puts = [s for s in spans if s["name"] == "runstore.put"]
    out["runstore.bytes_written"] = sum(s["bytes"] for s in puts)

    launches = [s for s in spans if s["name"] == "parallel.start_worker"]
    out["parallel.ship_bytes"] = _mean(s["ship_bytes"] for s in launches)
    out["parallel.cell_overhead_s"] = _mean(_cell_overheads(spans, launches))

    predicts = [s for s in spans if s["name"] == "analytic.predict"]
    out["analytic.predict_ms"] = 1000.0 * _mean(
        s["t1"] - s["t0"] for s in predicts
    )
    out["telemetry.profile_s"] = _total(spans, "telemetry.profile")
    out["telemetry.sampling_overhead_pct"] = _sampling_overhead(spans)

    for call in ("submit", "wait", "result"):
        out[f"service.{call}_ms"] = 1000.0 * _mean(
            s["t1"] - s["t0"] for s in spans if s["name"] == f"service.{call}"
        )

    own = [s for s in spans if s["pid"] == bench_pid]
    for layer in ACCOUNTED_LAYERS:
        out[f"self.{layer}_s"] = sum(
            s["self"] for s in own if s["name"].split(".", 1)[0] == layer
        )
    out["trace.unattributed_s"] = sum(
        s["self"] for s in own if s["name"].startswith("bench.")
    )
    return out


def _cell_overheads(spans, launches):
    """Parent-observed cell wall time minus the worker's simulation.

    With ``execute_cell`` (the service) the parent-observed time is its
    span; in the grid scheduler it runs from the worker launch to the
    cell's checkpoint.  Only simulation cells are paired.
    """
    config_of = {
        s["machine"]: s["cell"].split("|", 1)[1]
        for s in launches
        if "machine" in s
    }
    simulated = {}
    for s in spans:
        if s["name"] == "simulate.run_benchmark" and s["machine"] in config_of:
            cell = f"{s['benchmark']}|{config_of[s['machine']]}"
            simulated.setdefault(cell, []).append(s["t1"] - s["t0"])
    executed = [s for s in spans if s["name"] == "parallel.execute_cell"]
    overheads = []
    if executed:
        for s in executed:
            if simulated.get(s["cell"]):
                overheads.append(
                    s["t1"] - s["t0"] - simulated[s["cell"]].pop(0)
                )
        return overheads
    first_launch = {}
    for s in sorted(launches, key=lambda s: s["t0"]):
        if "cell" in s:
            first_launch.setdefault(s["cell"], s["t0"])
    for s in spans:
        if s["name"] != "runstore.put" or s["cell"] not in first_launch:
            continue
        if simulated.get(s["cell"]):
            overheads.append(
                s["t0"] - first_launch[s["cell"]] - simulated[s["cell"]][0]
            )
    return overheads


def _sampling_overhead(spans) -> float:
    """% host time a sampling hub adds to the same simulation.

    Pairs every hub-attached ``simulate_trace`` (a profile job) with a
    hub-less call on the same trace, machine and version.
    """
    plain = {}
    for s in spans:
        if s["name"] == "simulate.trace" and not s["hub"]:
            plain.setdefault(
                (s["trace"], s["machine"], s["version"]), s["t1"] - s["t0"]
            )
    hub_total = plain_total = 0.0
    for s in spans:
        if s["name"] == "simulate.trace" and s["hub"]:
            key = (s["trace"], s["machine"], s["version"])
            if key in plain:
                hub_total += s["t1"] - s["t0"]
                plain_total += plain[key]
    if not plain_total:
        return 0.0
    return 100.0 * (hub_total - plain_total) / plain_total
