"""The repository benchmark: one command, two workloads.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (all at SMALL scale, the paper's evaluation scale; load from
this one process, with at most two CPU-busy processes at a time so that
a two-CPU host measures the program rather than its scheduler):

``cold_sweep``
    The Table 3 unit: ``run_suite(jobs=1)`` over
    {vpenta, compress, tpcd_q3} x {Base Confg., Higher Mem. Lat.},
    both mechanisms, into a fresh empty run store.  The sweep runs in
    this process: two workers beside the parent preparing the next
    benchmark would put three busy processes on two CPUs, and the sweep
    time would follow the host's scheduling, not the program.
``service_mixed``
    A ``repro serve --jobs 1`` subprocess over a store pre-warmed with
    the grid's Base Confg. cells, driven by two closed-loop clients: a
    reader looping warm ``simulate`` jobs and ``POST /v1/predict``
    calls with a think time (one pair per ``READ_PERIOD`` at most), and
    a writer submitting, one at a time, each benchmark's cell on Higher
    Mem. Lat. and an interval-sampled ``profile`` job per benchmark on
    that configuration.  The think time keeps the reads' share of the
    CPUs fixed, so the writer's cells share the host with the same read
    load in every run.  The reader stops once the writer is done and
    ``--seconds`` have passed.

The grid is the paper's fixed input, run in a fixed benchmark order so
that runs compare; the seed orders its configurations and draws the
service request stream (the order of the writer's requests, the
benchmark of each read, each prediction's miss floor).  The program
receives only the generated requests.  Every result is checked against
digests pinned in ``pins.json``; a mismatch, a failed or refused
request, or a process or temp directory left behind counts as failed
and makes the command exit 1.  The last stdout line is the result
object; the line before it records the environment and sample counts.

Every workload reports the same end-to-end metrics:

``setup_s``
    Median of three cold starts of the program's entry point on the
    workload's store: ``repro runs`` for the sweep, ``repro serve`` up
    to a ready ``/v1/readyz`` for the service.  The service's store
    fill is not set-up; its cost is what ``cold_sweep`` measures.
``sweep_s``
    Wall time of the workload's batch of cells: the median grid sweep
    (as many whole sweeps as fit in ``--seconds``, at least one), or
    the writer's requests through the service while the reader runs.
``results_per_s``
    Results delivered per second of waiting for them: grid cells per
    second of sweeping, or reader responses (warm jobs and predictions)
    per second of the reader's summed request latency.
``ok_frac``
    Share of checked operations that passed (1 - failed / attempted).
``peak_rss_mb``
    Largest resident set of this process or any process it waited for,
    read after the first unit, so that it does not grow with the number
    of units a fast host fits in.

Service latencies by request kind (medians and p99s) go to the detail
line and, from a traced run, to the per-layer ``service.*`` metrics.

``--trace 1`` runs one unit untraced and one traced, and reports the
per-layer metrics of the traced unit (see ``layers.py``).
``--scale tiny`` and ``--pins`` exist for ``selftest.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("cold_sweep", "service_mixed")
BENCHMARKS = ("vpenta", "compress", "tpcd_q3")
WARM_CONFIG = "Base Confg."
GRID_CONFIGS = (WARM_CONFIG, "Higher Mem. Lat.")
#: Configurations the service writer computes cold cells and profiles on.
COLD_CONFIGS = ("Higher Mem. Lat.",)
PROFILE = {"version": "selective", "mechanism": "bypass", "interval": 1000}
SERVICE_LATENCIES = (
    "warm_p50_ms", "warm_p99_ms", "predict_p50_ms", "predict_p99_ms",
    "cold_cell_p50_s", "profile_p50_s",
)
#: Set-up is repeated this many times per run; the median is reported.
SETUP_SAMPLES = 3
#: A service unit gives up (and counts as failed) after this long.
WINDOW_LIMIT = 120.0
#: The reader sends at most one (warm simulate, predict) pair per this
#: many seconds.
READ_PERIOD = 0.25
#: Miss floors the predict stream draws from, without replacement per
#: benchmark, so every call runs the model instead of the cache.
MISS_FLOORS = [k / 1000 for k in range(100, 900)]


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


class Bench:
    """One invocation: workspace, plan, checks, and measurements."""

    def __init__(self, args):
        import checks
        from repro.workloads.base import SMALL, TINY

        self.args = args
        self.scale = {"small": SMALL, "tiny": TINY}[args.scale]
        self.pins = checks.load_pins(args.pins)[self.scale.name]
        self.tally = checks.Tally()
        rng = random.Random(args.seed)
        self.configs = list(GRID_CONFIGS)
        rng.shuffle(self.configs)
        self.rng = rng
        self.samples: dict[str, int] = {}
        self.latencies: dict[str, float] = {}
        self.work = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.work.mkdir(parents=True)
        (self.work / "tmp").mkdir()
        os.environ["TMPDIR"] = str(self.work / "tmp")
        tempfile.tempdir = None
        self.child_env = dict(
            os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1"
        )
        self._dirs = 0
        self.peak_rss = 0.0

    # -- workspace -----------------------------------------------------

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir()
        return path

    def remove(self, path: Path) -> None:
        shutil.rmtree(path, ignore_errors=True)
        self.tally.check(not path.exists(), f"temp dir {path} left behind")

    def check_no_workers(self) -> None:
        import multiprocessing

        alive = multiprocessing.active_children()
        for proc in alive:
            proc.kill()
            proc.join(5)
        self.tally.check(not alive, f"{len(alive)} cell worker(s) left alive")

    def close(self) -> None:
        self.check_no_workers()
        shutil.rmtree(self.work, ignore_errors=True)
        self.tally.check(not self.work.exists(), "workspace left behind")
        parent = self.work.parent
        try:
            parent.rmdir()  # only when no concurrent run still uses it
        except OSError:
            pass

    # -- correctness ---------------------------------------------------

    def cell_ok(self, benchmark, config, run_json) -> bool:
        """Does a cell's digest match the pinned cold result?"""
        import checks

        pinned = self.pins["cell"].get(checks.cell_id(benchmark, config))
        return checks.cell_digest(run_json) == pinned

    def check_suite(self, suite, configs) -> None:
        """Check every grid cell of a sweep against its pin."""
        import checks
        from repro.service.cells import run_to_json

        self.tally.check(not suite.failures, suite.failure_report())
        for config in configs:
            for benchmark in BENCHMARKS:
                run = suite.sweeps[config].runs.get(benchmark)
                if not self.tally.check(
                    run is not None, f"{benchmark}|{config}: no result"
                ):
                    continue
                self.tally.check(
                    self.cell_ok(benchmark, config, run_to_json(run)),
                    f"{checks.cell_id(benchmark, config)}: result differs "
                    "from the pinned cold result",
                )

    # -- set-up --------------------------------------------------------

    def time_command(self, argv) -> float:
        start = time.perf_counter()
        done = subprocess.run(
            argv,
            cwd=ROOT,
            env=self.child_env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        self.tally.check(done.returncode == 0, f"{argv[3:]} failed")
        return elapsed

    def setup_s(self, sample) -> float:
        times = [sample() for _ in range(SETUP_SAMPLES)]
        self.samples["setup_s"] = len(times)
        return statistics.median(times)

    # -- grid workloads ------------------------------------------------

    def sweep(self, store_dir: Path, configs) -> tuple:
        import repro.core.runner as runner
        from repro.core.runstore import RunStore
        from repro.params import SENSITIVITY_CONFIGS

        start = time.perf_counter()
        suite = runner.run_suite(
            self.scale,
            benchmarks=BENCHMARKS,
            configs={name: SENSITIVITY_CONFIGS[name] for name in configs},
            jobs=1,
            store=RunStore(store_dir),
        )
        return time.perf_counter() - start, suite

    def cold_unit(self) -> dict:
        store_dir = self.fresh_dir("store")
        elapsed, suite = self.sweep(store_dir, self.configs)
        self.check_suite(suite, self.configs)
        self.remove(store_dir)
        self.check_no_workers()
        return {"seconds": elapsed, "counts": suite_counts(suite)}

    def runs_command(self, store_dir: Path):
        argv = [
            sys.executable, "-m", "repro", "--scale", self.scale.name,
            "--store", str(store_dir), "runs",
        ]
        return lambda: self.time_command(argv)

    # -- service workload ----------------------------------------------

    def start_server(self, store_dir: Path, spans_dir=None) -> tuple:
        """Start ``repro serve``; returns (process, port, seconds)."""
        log = self.fresh_dir("serve") / "stdout.log"
        prefix = (
            [sys.executable, str(HERE / "serve_traced.py"), str(spans_dir)]
            if spans_dir is not None
            else [sys.executable, "-m", "repro"]
        )
        argv = prefix + [
            "--scale", self.scale.name, "--jobs", "1",
            "--store", str(store_dir), "serve", "--port", "0",
        ]
        start = time.perf_counter()
        with open(log, "w") as handle:
            proc = subprocess.Popen(
                argv,
                cwd=ROOT,
                env=self.child_env,
                stdout=handle,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        port = None
        deadline = start + 60
        while port is None and time.perf_counter() < deadline:
            if proc.poll() is not None:
                break
            for line in log.read_text().splitlines():
                if "listening on http://" in line:
                    port = int(line.split("http://", 1)[1].split()[0]
                               .rsplit(":", 1)[1])
            if port is None:
                time.sleep(0.005)
        if port is None:
            self.stop_server(proc)
            raise RuntimeError(f"repro serve did not start: {log.read_text()}")
        from repro.service.client import ServiceClient

        client = ServiceClient("127.0.0.1", port, retries=3)
        while not client.readyz()[0]:
            if time.perf_counter() > deadline:
                self.stop_server(proc)
                raise RuntimeError("repro serve never became ready")
            time.sleep(0.005)
        return proc, port, time.perf_counter() - start

    def stop_server(self, proc) -> None:
        """SIGTERM (graceful drain), then check the process group is gone."""
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            code = proc.wait()
        self.tally.check(code == 0, f"repro serve exited with {code}")
        for _ in range(200):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGKILL)
        self.tally.fail("repro serve left processes behind")

    def server_start_sample(self, store_dir: Path):
        def sample() -> float:
            proc, _, seconds = self.start_server(store_dir)
            self.stop_server(proc)
            return seconds

        return sample

    def service_unit(self, recorder=None) -> dict:
        import checks
        from repro.service.client import ServiceClient

        store_dir = self.fresh_dir("store")
        shutil.rmtree(store_dir)
        shutil.copytree(self.base_store, store_dir)
        spans_dir = recorder.directory if recorder is not None else None
        proc, port, _ = self.start_server(store_dir, spans_dir)
        scale = self.scale.name
        out = {"warm": [], "predict": [], "cold": [], "profile": []}
        counts = {"cycles": 0, "l1d_misses": 0, "l2_misses": 0}
        try:
            prime = ServiceClient("127.0.0.1", port, client_id="prime")
            for benchmark in BENCHMARKS:
                self.simulate(prime, benchmark, WARM_CONFIG)
                self.predict(prime, benchmark, 0.2)

            def simulate(client, benchmark, config, kind):
                latency, doc = self.simulate(client, benchmark, config)
                if latency is not None:
                    out[kind].append(latency)
                    if kind == "cold":  # only the writer thread
                        add_counts(counts, doc["cells"][0]["run"])

            def profile(client, benchmark, config):
                body = dict(
                    PROFILE, kind="profile", benchmark=benchmark,
                    config=config, scale=scale,
                )
                latency, doc = self.job(
                    client,
                    body,
                    lambda doc: doc.get("profile") is not None
                    and checks.profile_digest(doc["profile"])
                    == self.pins["profile"].get(
                        checks.cell_id(benchmark, config)
                    ),
                    f"profile {benchmark}",
                )
                if latency is not None:
                    out["profile"].append(latency)

            writer_ops = [
                op
                for config in COLD_CONFIGS
                for benchmark in BENCHMARKS
                for op in (
                    (simulate, benchmark, config, "cold"),
                    (profile, benchmark, config),
                )
            ]
            self.rng.shuffle(writer_ops)
            writer_done = threading.Event()
            batch = []

            def writer():
                client = ServiceClient(
                    "127.0.0.1", port, timeout=WINDOW_LIMIT,
                    client_id="writer",
                )
                try:
                    with root(recorder, "bench.writer"):
                        for fn, *op in writer_ops:
                            fn(client, *op)
                    batch.append(time.perf_counter() - start)
                finally:
                    writer_done.set()

            def reader():
                client = ServiceClient(
                    "127.0.0.1", port, timeout=WINDOW_LIMIT,
                    client_id="reader",
                )
                floors = {b: list(MISS_FLOORS) for b in BENCHMARKS}
                for values in floors.values():
                    self.rng.shuffle(values)
                with root(recorder, "bench.reader"):
                    while True:
                        count = len(BENCHMARKS)
                        for warm, other in zip(
                            self.rng.sample(BENCHMARKS, count),
                            self.rng.sample(BENCHMARKS, count),
                        ):
                            slot = time.perf_counter()
                            simulate(client, warm, WARM_CONFIG, "warm")
                            floor = floors[other].pop()
                            floors[other].insert(0, floor)
                            latency = self.predict(client, other, floor)
                            if latency is not None:
                                out["predict"].append(latency)
                            rest = READ_PERIOD - (time.perf_counter() - slot)
                            if rest > 0:
                                time.sleep(rest)
                        elapsed = time.perf_counter() - start
                        if (
                            writer_done.is_set()
                            and elapsed >= self.args.seconds
                        ) or elapsed > WINDOW_LIMIT:
                            return

            start = time.perf_counter()
            threads = [
                threading.Thread(target=writer, name="writer", daemon=True),
                threading.Thread(target=reader, name="reader", daemon=True),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(WINDOW_LIMIT + 30)
            window = time.perf_counter() - start
            self.tally.check(
                not any(thread.is_alive() for thread in threads),
                "service clients did not finish",
            )
            self.tally.check(
                len(out["cold"]) + len(out["profile"]) == len(writer_ops)
                and bool(batch),
                "writer did not complete its requests",
            )
            metrics = ServiceClient("127.0.0.1", port).metrics()
        finally:
            self.stop_server(proc)
        self.remove(store_dir)
        return {
            "seconds": batch[0] if batch else window,
            "window": window,
            "requests": out,
            "counts": counts,
            "server": metrics,
        }

    def job(self, client, body, check, what) -> tuple:
        """Submit, wait, fetch the result bytes; (latency, doc) or None."""
        from repro.service.client import ServiceError

        start = time.perf_counter()
        try:
            job = client.submit(body)
            final = client.wait(job["id"], timeout=WINDOW_LIMIT)
            raw = client.result_bytes(job["id"])
            latency = time.perf_counter() - start
            doc = json.loads(raw)
            ok = final["state"] == "done" and not doc["failures"]
            ok = ok and check(doc)
        except (ServiceError, OSError, TimeoutError, ValueError, KeyError,
                IndexError) as exc:
            self.tally.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None, None
        if not self.tally.check(ok, f"{what}: wrong or failed result"):
            return None, None
        return latency, doc

    def simulate(self, client, benchmark, config) -> tuple:
        def check(doc):
            cells = doc["cells"]
            return len(cells) == 1 and self.cell_ok(
                benchmark, config, cells[0]["run"]
            )

        body = {
            "kind": "simulate",
            "benchmark": benchmark,
            "config": config,
            "scale": self.scale.name,
        }
        return self.job(client, body, check, f"simulate {benchmark}|{config}")

    def predict(self, client, benchmark, floor):
        import checks
        from repro.service.client import ServiceError

        start = time.perf_counter()
        try:
            payload = client.predict(
                benchmark, scale=self.scale.name, miss_floor=floor
            )
        except (ServiceError, OSError, ValueError) as exc:
            self.tally.fail(f"predict {benchmark}: {exc}")
            return None
        latency = time.perf_counter() - start
        ok = payload.get("miss_floor") == floor and checks.predict_digest(
            payload
        ) == self.pins["predict"].get(benchmark)
        return latency if self.tally.check(
            ok, f"predict {benchmark}: wrong result"
        ) else None

    # -- workloads -----------------------------------------------------

    def repeat(self, unit) -> list:
        """Run whole units until the next one would overrun --seconds."""
        results = []
        start = time.perf_counter()
        while True:
            results.append(unit())
            if len(results) == 1:
                self.peak_rss = peak_rss_mb()
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["seconds"] for r in results)
            if elapsed + typical > self.args.seconds:
                return results

    def run(self) -> dict:
        workload = self.args.workload
        unit = {
            "cold_sweep": self.cold_unit,
            "service_mixed": self.service_unit,
        }[workload]
        if workload == "service_mixed":
            self.base_store = self.fresh_dir("base-store")
            _, suite = self.sweep(self.base_store, [WARM_CONFIG])
            self.check_suite(suite, [WARM_CONFIG])
            self.check_no_workers()
        if self.args.trace:
            return self.traced(unit)
        metrics = {}
        if workload == "service_mixed":
            metrics["setup_s"] = self.setup_s(
                self.server_start_sample(self.base_store)
            )
        else:
            metrics["setup_s"] = self.setup_s(
                self.runs_command(self.fresh_dir("empty-store"))
            )
        results = self.repeat(unit)
        seconds = [r["seconds"] for r in results]
        self.samples["sweep_s"] = len(seconds)
        metrics["sweep_s"] = statistics.median(seconds)
        if workload == "service_mixed":
            out = {
                kind: [v for r in results for v in r["requests"][kind]]
                for kind in results[0]["requests"]
            }
            reads = len(out["warm"]) + len(out["predict"])
            metrics["results_per_s"] = reads / (
                sum(out["warm"]) + sum(out["predict"])
            )
            self.samples["results_per_s"] = reads
            self.samples["window_s"] = [round(r["window"], 3) for r in results]
            self.latencies = service_latencies(out, self.samples)
        else:
            cells = len(self.configs) * len(BENCHMARKS) * len(seconds)
            metrics["results_per_s"] = cells / sum(seconds)
            self.samples["results_per_s"] = cells
        self.samples["sweep_s_values"] = [round(x, 4) for x in seconds]
        metrics["peak_rss_mb"] = self.peak_rss
        return metrics

    def traced(self, unit) -> dict:
        """One untraced unit, then the same unit with layer spans."""
        import layers

        untraced = unit()
        recorder = layers.Recorder(self.fresh_dir("spans"))
        layers.install(recorder)
        if self.args.workload == "service_mixed":
            traced = unit(recorder)
        else:
            with recorder.root("bench.main"):
                traced = unit()
        recorder.close()
        metrics = layers.summarize(
            layers.read_spans(recorder.directory), os.getpid()
        )
        counts = traced["counts"]
        metrics["sim.cycles"] = counts["cycles"]
        metrics["memory.l1d_misses"] = counts["l1d_misses"]
        metrics["memory.l2_misses"] = counts["l2_misses"]
        server = traced.get("server", {})
        for name in ("warm_hits", "scheduler_executions", "prepares",
                     "coalesced"):
            metrics[f"service.{name}"] = server.get(name, 0)
        metrics["service.shed"] = sum(
            value for key, value in server.items() if key.startswith("shed_")
        )
        if "requests" in traced:
            latencies = service_latencies(traced["requests"], self.samples)
        else:
            latencies = dict.fromkeys(SERVICE_LATENCIES, 0.0)
        for name in SERVICE_LATENCIES:
            metrics[f"service.{name}"] = latencies[name]
        metrics["trace.overhead_pct"] = (
            100.0 * (traced["seconds"] - untraced["seconds"])
            / untraced["seconds"]
        )
        return metrics


def root(recorder, name):
    """The load thread's root span, or nothing when untraced."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.root(name)


def add_counts(counts: dict, run_json: dict) -> None:
    """Add a cell's simulated totals over all of its versions."""
    for result in run_json["results"].values():
        counts["cycles"] += result["cycles"]
        counts["l1d_misses"] += result["memory"]["l1d"]["misses"]
        counts["l2_misses"] += result["memory"]["l2"]["misses"]


def suite_counts(suite) -> dict:
    """Simulated totals over every version of every cell."""
    from repro.service.cells import run_to_json

    counts = {"cycles": 0, "l1d_misses": 0, "l2_misses": 0}
    for sweep in suite.sweeps.values():
        for run in sweep.runs.values():
            add_counts(counts, run_to_json(run))
    return counts


def service_latencies(out: dict, samples: dict) -> dict:
    """Latency percentiles of the service requests, by kind."""
    values = {}
    for kind in ("warm", "predict"):
        ms = [v * 1000.0 for v in out[kind]]
        samples[f"{kind}_ms"] = len(ms)
        values[f"{kind}_p50_ms"] = statistics.median(ms) if ms else 0.0
        values[f"{kind}_p99_ms"] = percentile(ms, 99) if ms else 0.0
    for kind, name in (("cold", "cold_cell_p50_s"),
                       ("profile", "profile_p50_s")):
        samples[name] = len(out[kind])
        values[name] = statistics.median(out[kind]) if out[kind] else 0.0
    return values


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("small", "tiny"), default="small")
    parser.add_argument("--pins", default=str(HERE / "pins.json"))
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: program source {SRC / 'repro'} not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bench = Bench(args)
    try:
        values = bench.run()
    finally:
        bench.close()
    tally = bench.tally
    if not args.trace:
        values["ok_frac"] = 1.0 - tally.failed / max(tally.attempted, 1)
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    detail = {
        "environment": checks.environment(
            ROOT, args.workload, args.seed, args.scale
        ),
        "samples": bench.samples,
        "service_latencies": bench.latencies,
        "failures": tally.notes[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
