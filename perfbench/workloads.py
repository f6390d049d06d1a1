"""One repetition of a benchmark workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/workloads.py --workload uniform_pci32 \\
        --seed 1 [--trace] [--size tiny] [--out-dir .perfbench]

A repetition sets up (circuit generation, T1/T2 calibration, engine and
store creation) ``SETUP_REPEATS`` times, keeping the last set-up, runs the
workload cold into a fresh RunStore and then re-serves it warm from the
store.  The process prints one JSON line with its timings, outputs
(``t_a``, yield, per-scenario ``RunSummary.digest()``), the checks that
failed and its environment.  ``perfbench/run.py`` starts one such process
per invocation.

The designs are fixed: the repository's Table 1 circuits, calibrated to
T1/T2 from a fixed calibration population.  The workload seed draws the
manufactured chips under test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.api import Engine, OnlineConfig, Scenario
from repro.api.parallel import process_cpu_count
from repro.circuit.generator import Circuit, generate_circuit
from repro.core.yields import chip_source, operating_periods, sample_circuit
from repro.experiments.benchdata import BENCHMARK_NAMES, benchmark_spec
from repro.experiments.context import DEFAULT_OFFLINE
from repro.kernels import numba_available
from repro.results import RunStore
from repro.utils.rng import derive_seed

#: Seed of the designs: the Table 1 circuits and their T1/T2 calibration
#: (the experiments' default), so every workload seed tests the same
#: circuits at the same clock periods, prepared identically.
DESIGN_SEED = 20160605

#: Chips drawn (from the design seed) to calibrate each circuit's T1/T2.
CALIBRATION_CHIPS = 1024

#: Set-ups per untraced repetition; ``setup_s`` is their median.  Two keep
#: the slowest workload's repetition near a minute.
SETUP_REPEATS = 2


@dataclass(frozen=True)
class Workload:
    """What one workload runs.

    ``periods`` name the test periods: ``"t1"``, ``"t2"`` or ``"1.05t2"``;
    the design (clock) period is always T1, so a circuit's periods share
    one preparation.  ``shards`` > 1 splits each population into that
    many chip shards run on as many shard threads.
    """

    circuits: tuple[str, ...]
    n_chips: int
    periods: tuple[str, ...] = ("t1",)
    test_budget: str = "uniform"
    shards: int = 1
    sweep: bool = False
    warm_passes: int = 50

    def online(self) -> OnlineConfig:
        if self.shards == 1:
            return OnlineConfig(test_budget=self.test_budget, artifacts="summary")
        return OnlineConfig(
            test_budget=self.test_budget,
            artifacts="summary",
            shard_workers=self.shards,
            chip_shard_size=math.ceil(self.n_chips / self.shards),
        )


#: Paper-scale workloads and their tiny twins, which run the same code
#: paths on ``s9234``-sized inputs in seconds (used by the tests).
WORKLOADS: dict[str, dict[str, Workload]] = {
    "paper": {
        "uniform_pci32": Workload(("pci_bridge32",), 128, warm_passes=5000),
        "adaptive_pci32": Workload(
            ("pci_bridge32",), 192, ("1.05t2",), "adaptive", shards=2,
            warm_passes=5000,
        ),
        "table_sweep": Workload(
            BENCHMARK_NAMES, 4, ("t1", "t2"), sweep=True, warm_passes=300
        ),
    },
    "tiny": {
        "uniform_pci32": Workload(("s9234",), 8, warm_passes=5),
        "adaptive_pci32": Workload(
            ("s9234",), 8, ("1.05t2",), "adaptive", shards=2, warm_passes=5
        ),
        "table_sweep": Workload(
            ("s9234", "s13207"), 4, ("t1", "t2"), sweep=True, warm_passes=5
        ),
    },
}


def cpu_model() -> str:
    """Processor model and a hash of its feature flags.

    The flags select the BLAS and SIMD kernels, whose rounding can differ,
    so results are only compared between equal processors.
    """
    fields = {}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                fields.setdefault(key.strip(), value.strip())
    except OSError:
        return platform.machine()
    flags = hashlib.sha256(fields.get("flags", "").encode()).hexdigest()[:12]
    return f"{fields.get('model name', platform.machine())} flags:{flags}"


def environment(seed: int, size: str) -> dict:
    """The part of the environment that can change results or timings."""
    return {
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": process_cpu_count(),
        "numba": numba_available(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "size": size,
    }


@dataclass
class Setup:
    circuits: list[Circuit]
    periods: list[tuple[float, float]]
    engine: Engine
    store: RunStore


def setup(workload: Workload, store_dir: Path) -> Setup:
    """Generate the circuits, calibrate T1/T2, create engine and store."""
    circuits, periods = [], []
    for name in workload.circuits:
        circuit = generate_circuit(
            benchmark_spec(name), seed=derive_seed(DESIGN_SEED, name, "circuit")
        )
        calibration = sample_circuit(
            circuit,
            CALIBRATION_CHIPS,
            seed=derive_seed(DESIGN_SEED, name, "calibration"),
        )
        circuits.append(circuit)
        periods.append(operating_periods(calibration))
    engine = Engine(offline=DEFAULT_OFFLINE, online=workload.online())
    return Setup(circuits, periods, engine, RunStore(store_dir))


def scenarios(workload: Workload, seed: int, ready: Setup) -> list[Scenario]:
    period_of = {"t1": lambda t1, t2: t1, "t2": lambda t1, t2: t2,
                 "1.05t2": lambda t1, t2: 1.05 * t2}
    out = []
    for circuit, (t1, t2) in zip(ready.circuits, ready.periods):
        source = chip_source(
            circuit, workload.n_chips, seed=derive_seed(seed, circuit.name, "evaluation")
        )
        for label in workload.periods:
            out.append(Scenario(
                circuit,
                period=period_of[label](t1, t2),
                clock_period=t1,
                population=source,
                label=f"{circuit.name}@{label}",
            ))
    return out


def run_cold(workload: Workload, ready: Setup, grid: list[Scenario]):
    """Scenarios in, records out: returns (summaries, offline seconds).

    The sweep workload goes through ``Engine.sweep`` into the store; a
    single-scenario workload calls ``Engine.prepare`` and ``Engine.run``
    and stores the record itself.
    """
    engine, store = ready.engine, ready.store
    if workload.sweep:
        records = list(engine.sweep(grid, store=store))
        offline = sum(r.offline_seconds for r in records if not r.cache_hit)
        return [r.summary for r in records], offline
    (scenario,) = grid
    started = time.perf_counter()
    prep = engine.prepare(scenario.circuit, scenario.design_period)
    offline = time.perf_counter() - started
    result = engine.run(
        scenario.circuit, scenario.population, scenario.period, preparation=prep
    )
    store.store(
        engine.run_key(scenario), result.summary, offline_seconds=prep.offline_seconds
    )
    return [result.summary], offline


def repetition(
    workload: Workload, seed: int, store_dir: Path, tracer=None
) -> dict:
    """Set up, run cold, serve warm; every output checked.

    A traced repetition sets up once, so each layer's self time covers a
    single set-up.
    """
    phase = tracer.span if tracer is not None else lambda name: nullcontext()
    errors: list[str] = []

    setup_s = []
    for _ in range(1 if tracer is not None else SETUP_REPEATS):
        ready = None  # the previous set-up is freed before the next begins
        started = time.perf_counter()
        with phase("bench.setup"):
            ready = setup(workload, store_dir)
        setup_s.append(time.perf_counter() - started)
    grid = scenarios(workload, seed, ready)

    started = time.perf_counter()
    with phase("bench.run"):
        summaries, offline_s = run_cold(workload, ready, grid)
    window = (started, time.perf_counter())
    run_s = window[1] - window[0]
    digests = [s.digest() for s in summaries]

    warm_ms = []
    with phase("bench.warm"):
        for _ in range(workload.warm_passes):
            started = time.perf_counter()
            warm = list(ready.engine.sweep(grid, store=ready.store))
            warm_ms.append(1e3 * (time.perf_counter() - started))
            if not all(r.from_store for r in warm):
                errors.append("warm pass computed instead of reading the store")
            elif [r.summary.digest() for r in warm] != digests:
                errors.append("warm pass digests differ from the cold run")
    misses = ready.engine.cache_stats.misses
    if misses != len(workload.circuits):
        errors.append(f"{misses} preparation-cache misses, expected one per circuit")

    chips = sum(s.n_chips for s in summaries)
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "offline_s": offline_s,
        "warm_sweep_ms": float(np.median(warm_ms)),
        "warm_passes": len(warm_ms),
        "ta": sum(s.mean_iterations * s.n_chips for s in summaries) / chips,
        "yield_pct": 100.0 * sum(s.yield_fraction * s.n_chips for s in summaries) / chips,
        "scenarios": len(grid),
        "digests": digests,
        "errors": sorted(set(errors)),
    }
    if tracer is not None:
        from spans import layer_metrics

        layers = layer_metrics(tracer.spans, tracer.counters, window)
        layers["api.cache.misses"] = misses
        layers["api.cache.hits"] = ready.engine.cache_stats.hits
        layers["results.store.bytes_written"] = sum(
            p.stat().st_size for p in store_dir.glob("run-*") if p.is_file()
        )
        calls = layers["core.budget.coarse_epsilon.calls"]
        if workload.test_budget == "adaptive" and calls != workload.shards:
            out["errors"].append(
                f"coarse_epsilon ran {calls} times, expected once per chip shard"
            )
        out["layers"] = layers
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(WORKLOADS), default="paper")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out-dir", type=Path, default=Path(".perfbench"))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.size][args.workload]
    store_dir = args.out_dir / f"store-{os.getpid()}"
    shutil.rmtree(store_dir, ignore_errors=True)

    out: dict = {"env": environment(args.seed, args.size)}
    try:
        if args.trace:
            from spans import Instrumentation, Tracer

            tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}")
            with Instrumentation(tracer):
                out.update(repetition(workload, args.seed, store_dir, tracer))
            tracer.write(args.out_dir / f"spans-{tracer.run_id}.json")
        else:
            out.update(repetition(workload, args.seed, store_dir))
    except Exception:
        out["errors"] = [traceback.format_exc()]
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
