"""Serial vs parallel sweep equality and job resolution."""

from __future__ import annotations

import pytest

from repro.core.experiment import run_benchmark
from repro.core.parallel import resolve_jobs, run_benchmark_parallel
from repro.core.runner import run_suite
from repro.core.versions import prepare_codes
from repro.params import SENSITIVITY_CONFIGS, base_config
from repro.workloads.base import TINY
from repro.workloads.registry import get_spec

BENCHMARKS = ["vpenta", "compress"]
CONFIGS = {
    name: SENSITIVITY_CONFIGS[name]
    for name in ("Base Confg.", "Higher Mem. Lat.")
}


@pytest.fixture(scope="module")
def serial_suite():
    return run_suite(TINY, benchmarks=BENCHMARKS, configs=CONFIGS, jobs=1)


class TestSerialParallelEquality:
    def test_identical_results_every_cell(self, serial_suite):
        parallel_suite = run_suite(
            TINY, benchmarks=BENCHMARKS, configs=CONFIGS, jobs=2
        )
        assert parallel_suite.config_names() == serial_suite.config_names()
        for config_name in serial_suite.sweeps:
            serial_sweep = serial_suite.sweep(config_name)
            parallel_sweep = parallel_suite.sweep(config_name)
            assert list(parallel_sweep.runs) == list(serial_sweep.runs)
            for name, serial_run in serial_sweep.runs.items():
                parallel_run = parallel_sweep.runs[name]
                assert parallel_run.version_keys() == serial_run.version_keys()
                for key in serial_run.version_keys():
                    assert (
                        parallel_run.results[key] == serial_run.results[key]
                    ), f"{config_name}/{name}/{key}"
                    assert parallel_run.improvement(key) == pytest.approx(
                        serial_run.improvement(key), abs=0.0
                    )

    def test_progress_callback_fires_once_per_cell(self):
        messages: list[str] = []
        run_suite(
            TINY,
            benchmarks=BENCHMARKS,
            configs=CONFIGS,
            jobs=2,
            progress=messages.append,
        )
        preparing = [m for m in messages if m.startswith("preparing")]
        done = [m for m in messages if "done" in m]
        assert len(preparing) == len(BENCHMARKS)
        assert len(done) == len(BENCHMARKS) * len(CONFIGS)

    def test_run_benchmark_parallel_matches_sequential(self):
        machine = base_config().scaled(TINY.machine_divisor)
        codes = prepare_codes(get_spec("vpenta"), TINY, machine)
        sequential = run_benchmark(codes, machine)
        parallel = run_benchmark_parallel(codes, machine, jobs=2)
        assert parallel.version_keys() == sequential.version_keys()
        for key in sequential.version_keys():
            assert parallel.results[key] == sequential.results[key]


class TestResolveJobs:
    def test_explicit_positive_value(self):
        assert resolve_jobs(4) == 4
        assert resolve_jobs(1) == 1

    @pytest.mark.parametrize("bad", [0, -3])
    def test_non_positive_value_rejected(self, bad):
        # Silently clamping 0/negative to one worker used to hide
        # misconfigured callers; now it is a hard error.
        with pytest.raises(ValueError, match="positive integer"):
            resolve_jobs(bad)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(None) == 3

    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_non_positive_env_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_JOBS", bad)
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_non_integer_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_env_ignored_when_explicit(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs(2) == 2

    def test_defaults_to_cpu_count(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == max(os.cpu_count() or 1, 1)


class TestSweepTimeline:
    """The optional wall-clock timeline observes sweeps without changing them."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_records_prepare_and_cell_spans(self, serial_suite, jobs):
        from repro.telemetry import SweepTimeline

        timeline = SweepTimeline()
        suite = run_suite(
            TINY,
            benchmarks=BENCHMARKS,
            configs=CONFIGS,
            jobs=jobs,
            timeline=timeline,
        )
        # Observation is passive: results identical to the untimed run.
        for config_name in serial_suite.sweeps:
            assert (
                suite.sweep(config_name).runs.keys()
                == serial_suite.sweep(config_name).runs.keys()
            )
        prepares = timeline.by_status("prepare")
        oks = timeline.by_status("ok")
        assert len(prepares) == len(BENCHMARKS)
        assert len(oks) == len(BENCHMARKS) * len(CONFIGS)
        assert all(span.end >= span.start >= 0.0 for span in timeline.spans)
        assert {span.benchmark for span in oks} == set(BENCHMARKS)
        assert timeline.total_busy_seconds() > 0.0

    def test_retried_cell_records_one_span_per_attempt(self):
        from repro.core.faults import FaultPlan
        from repro.telemetry import SweepTimeline

        timeline = SweepTimeline()
        suite = run_suite(
            TINY,
            benchmarks=["vpenta"],
            configs={"Base Confg.": CONFIGS["Base Confg."]},
            jobs=2,
            retries=1,
            backoff=0.05,
            faults=FaultPlan.parse("raise:vpenta:*:1"),
            timeline=timeline,
        )
        assert suite.complete
        assert [(span.status, span.attempt) for span in timeline.spans] == [
            ("prepare", 1),
            ("error", 1),
            ("ok", 2),
        ]
        assert "FaultInjected" in timeline.spans[1].annotations["message"]
        assert timeline.spans[2].annotations == {}

    def test_exports_as_valid_chrome_trace(self):
        from repro.telemetry import SweepTimeline, sweep_trace_events, validate_trace

        timeline = SweepTimeline()
        run_suite(
            TINY,
            benchmarks=["vpenta"],
            configs=CONFIGS,
            jobs=2,
            timeline=timeline,
        )
        counts = validate_trace(sweep_trace_events(timeline))
        assert counts["spans"] == len(timeline)


class TestSweepAggregation:
    def test_total_memory_merges_all_benchmarks(self, serial_suite):
        from repro.core.sweep import SweepResult

        sweep = serial_suite.sweep("Base Confg.")
        total = sweep.total_memory("base")
        assert total.l1d.accesses == sum(
            run.results["base"].memory.l1d.accesses
            for run in sweep.runs.values()
        )
        assert total.mem_reads == sum(
            run.results["base"].memory.mem_reads
            for run in sweep.runs.values()
        )
        assert SweepResult("empty").total_memory("base") is None
