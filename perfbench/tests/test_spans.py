"""Tests of the benchmark's tracer and its tiny workloads.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import (  # noqa: E402
    JOB_NAME,
    MAP_NAME,
    TARGETS,
    Instrumentation,
    Span,
    Tracer,
    layer_metrics,
    self_times,
)

from repro.api.parallel import ShardExecutor  # noqa: E402

TINY = workloads.WORKLOADS["tiny"]


def _span(id, start, end, parent=None, thread="main"):
    return Span(id, f"s{id}", start, end, parent, thread, "r")


def test_self_time_subtracts_nested_children_once():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 3.0, 6.0, parent=0, thread="other"),  # overlaps span 1
        _span(3, 1.0, 2.0, parent=1),
        _span(4, 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)


def test_tracer_nests_spans_per_thread():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    spans = {s.id: s for s in tracer.spans}
    assert spans[inner].parent == outer
    assert spans[outer].parent is None
    assert spans[outer].start <= spans[inner].start <= spans[inner].end <= spans[outer].end


def test_concurrent_shard_threads_attach_to_the_map_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def job(i):
        with tracer.span("work"):
            barrier.wait()  # both jobs are inside their spans at once
            time.sleep(0.05)
        return i

    with Instrumentation(tracer, targets=()):
        assert ShardExecutor(2).map(job, [(0,), (1,)]) == [0, 1]

    by_name: dict[str, list[Span]] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (map_span,) = by_name[MAP_NAME]
    jobs = by_name[JOB_NAME]
    assert len(jobs) == 2 and {j.parent for j in jobs} == {map_span.id}
    assert len({j.thread for j in jobs}) == 2
    assert {w.parent for w in by_name["work"]} == {j.id for j in jobs}
    a, b = jobs
    assert max(a.start, b.start) < min(a.end, b.end)  # they overlapped
    # The map only waited: its children cover almost all of it.
    assert self_times(tracer.spans)[map_span.id] < 0.5 * map_span.duration
    metrics = layer_metrics(tracer.spans, tracer.counters, (map_span.start, map_span.end))
    assert 0.5 < metrics["api.parallel.busy_frac"] <= 1.0


def test_adaptive_counters_are_extracted(tmp_path):
    workload = TINY["adaptive_pci32"]
    tracer = Tracer()
    with Instrumentation(tracer):
        out = workloads.repetition(workload, 1, tmp_path / "store", tracer)
    layers = out["layers"]
    assert out["errors"] == []
    assert layers["core.budget.coarse_epsilon.calls"] == workload.shards
    tested = tracer.counters["core.budget.tested"]
    certified = tracer.counters["core.budget.certified"]
    assert tested == workload.n_chips
    assert layers["core.budget.certified_frac"] == certified / tested
    assert layers["core.budget.rerun_chips"] == tested - certified
    # The tester iterations of every batch add up to the end-to-end t_a;
    # each iteration solves at most one alignment row.
    iterations = layers["core.population.iterations"]
    assert iterations == pytest.approx(out["ta"] * workload.n_chips)
    assert 0 < layers["core.alignment.solve_alignment.rows"] <= iterations
    assert layers["core.configuration.configure_chips.rows"] >= workload.n_chips
    assert layers["api.parallel.busy_frac"] > 0


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    import importlib

    def resolve(target):
        owner = importlib.import_module(target.module)
        for part in target.attr.split("."):
            owner = getattr(owner, part)
        return owner

    before = {t.name: resolve(t) for t in TARGETS}
    import repro.core.population as population

    solve = population.solve_alignment
    tracer = Tracer()
    with Instrumentation(tracer):
        assert population.solve_alignment is not solve
        workloads.repetition(TINY["uniform_pci32"], 1, tmp_path / "a", tracer)
    assert {t.name: resolve(t) for t in TARGETS} == before
    assert population.solve_alignment is solve
    assert ShardExecutor.map.__name__ == "map"

    recorded = len(tracer.spans)
    out = workloads.repetition(TINY["uniform_pci32"], 1, tmp_path / "b")
    assert len(tracer.spans) == recorded
    assert out["errors"] == [] and "layers" not in out


def test_sweep_workload_misses_once_per_circuit(tmp_path):
    workload = TINY["table_sweep"]
    tracer = Tracer()
    with Instrumentation(tracer):
        out = workloads.repetition(workload, 3, tmp_path / "store", tracer)
    assert out["errors"] == []
    assert out["scenarios"] == 2 * len(workload.circuits)
    assert out["layers"]["api.cache.misses"] == len(workload.circuits)
    assert out["layers"]["results.store.RunStore.store.calls"] == out["scenarios"]
    assert out["layers"]["results.store.bytes_written"] > 0


def _run(bench: Path, tmp_path: Path, trace: int = 0) -> tuple[dict, dict]:
    """Run ``bench/run.py`` on the tiny adaptive workload at seed 2."""
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "adaptive_pci32",
         "--size", "tiny", "--seed", "2", "--seconds", "1", "--trace", str(trace),
         "--out-dir", str(tmp_path / "out")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    detail, result = (json.loads(line) for line in done.stdout.strip().splitlines()[-2:])
    return detail, result


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_declared_metric(tmp_path, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail, result = _run(HERE, tmp_path, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    # Seed 2 has no recorded digests: the canary checks the program.
    assert detail["check"] in ("canary", "none")
    if not trace:
        assert detail["samples"]["setup_s"] == workloads.SETUP_REPEATS


def test_a_wrong_canary_reference_fails_the_run(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py", "reference_digests.json"):
        shutil.copy(HERE / name, bench / name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    reference = json.loads((bench / "reference_digests.json").read_text())
    entry = reference["tiny"]["adaptive_pci32"][str(run.DEFAULT_SEED)]
    entry["digests"] = ["0" * 64 for _ in entry["digests"]]
    (bench / "reference_digests.json").write_text(json.dumps(reference))
    detail, result = _run(bench, tmp_path)
    if detail["check"] == "none":
        pytest.skip("the recorded canary digests do not apply in this environment")
    assert detail["check"] == "canary"
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_recorded_digests_apply_only_where_outputs_can_repeat():
    env = {"cpu": "c", "numpy": "2", "numba": False, "blas_threads": "1",
           "size": "paper", "python": "3.11", "cpu_count": 2}
    reference = {"paper": {"w": {"7": {"env": env, "digests": ["a", "b"]}}}}
    assert run.expected_digests(reference, "paper", "w", 7, env) == ["a", "b"]
    other_host = dict(env, python="3.12", cpu_count=8)
    assert run.expected_digests(reference, "paper", "w", 7, other_host) == ["a", "b"]
    assert run.expected_digests(reference, "paper", "w", 7, dict(env, cpu="d")) is None
    assert run.expected_digests(reference, "paper", "w", 8, env) is None
    assert run.mismatches(["a", "x"], ["a", "b"]) == 1
    assert run.mismatches(["a"], ["a", "b"]) == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "uniform_pci32",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def _result_set(directory: Path, numpy: str, name: str, value: float) -> Path:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = {"cpu": "x", "python": "3", "numpy": numpy, "cpu_count": 2, "numba": False,
           "blas_threads": "1", "seed": 1, "size": "tiny"}
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec["end_to_end"]}
    metrics[name]["value"] = value
    directory.mkdir()
    (directory / "uniform_pci32-seed1-trace0.json").write_text(json.dumps({
        "workload": "uniform_pci32", "env": env,
        "result": {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics},
    }))
    return directory


@pytest.mark.parametrize(
    ("numpy", "name", "value", "code"),
    [
        ("1", "run_s", 1.0, 0),
        ("1", "run_s", 1.02, 0),  # within the timing bound
        ("1", "run_s", 2.0, 1),
        ("1", "ta", 1.02, 1),  # an output changed on its seed
        ("1", "yield_pct", 1.02, 0),  # better
        ("2", "run_s", 1.0, 2),
    ],
)
def test_compare_refuses_different_environments(tmp_path, numpy, name, value, code):
    base = _result_set(tmp_path / "base", "1", "run_s", 1.0)
    new = _result_set(tmp_path / "new", numpy, name, value)
    done = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(base), str(new)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == code
