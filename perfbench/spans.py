"""In-memory span tracer for the benchmark's traced runs.

The program itself carries no tracing.  This module wraps each layer's
public functions from the outside, by rebinding the module (and class)
attributes that callers look up, and records one span per call: name,
start, end, parent span, thread and run id.  Spans stay in memory and are
written out when the run ends.  A layer's self time is its spans'
duration minus the part of each interval its child spans cover.

Only traced runs import this module; :class:`Instrumentation` restores
every original attribute on exit, so untraced runs later in the same
process call the program's functions directly.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: str
    run_id: str
    #: Seconds the tracer itself spent opening and closing this span.
    overhead: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters; safe to use from several threads.

    Each thread keeps its own stack of open spans, which gives a span its
    parent.  A span opened on a worker thread on behalf of another
    thread's span names that span as ``parent`` explicitly.  Every span
    records the time spent in its own bookkeeping, measured from entering
    the wrapper to the first line of the wrapped call and from its return
    to the span being stored, so the tracing overhead of a run is a sum
    of measurements rather than a difference of two noisy runs.
    """

    def __init__(self, run_id: str = "run"):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, parent: int | None = None) -> tuple[int, int | None]:
        """Push a new span on this thread's stack: ``(id, parent)``."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent

    def close(
        self, opened: tuple[int, int | None], name: str,
        entered: float, start: float, end: float,
    ) -> None:
        """Pop and store a span; ``entered`` is when its wrapper began."""
        self._stack().pop()
        span_id, parent = opened
        thread = threading.current_thread().name
        overhead = start - entered + time.perf_counter() - end
        span = Span(span_id, name, start, end, parent, thread, self.run_id, overhead)
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None) -> Iterator[int]:
        entered = time.perf_counter()
        opened = self.open(parent)
        start = time.perf_counter()
        try:
            yield opened[0]
        finally:
            self.close(opened, name, entered, start, time.perf_counter())

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def write(self, path: str | Path) -> None:
        """Write every span and counter as one JSON document."""
        payload = {
            "run_id": self.run_id,
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, s.thread, s.overhead]
                for s in sorted(self.spans, key=lambda s: s.id)
            ],
            "counters": self.counters,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus the time its children cover.

    Children running concurrently on several threads overlap; their union
    is subtracted once, so a parent that only waits on worker threads has
    a self time near zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - _covered(span.start, span.end, children.get(span.id, []))
        for span in spans
    }


# ----------------------------------------------------------------------------
# Layer targets
# ----------------------------------------------------------------------------

#: Called as ``hook(tracer, args, kwargs, result)`` after a traced call.
Hook = Callable[[Tracer, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One public function or method of a layer, and its span name."""

    module: str
    attr: str  # "function" or "Class.method"
    name: str
    hook: Hook | None = None


def _rows(position: int, keyword: str, counter: str) -> Hook:
    """Count the rows (chips) of one array argument."""

    def hook(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
        rows = args[position] if len(args) > position else kwargs[keyword]
        tracer.count(counter, len(rows))

    return hook


def _iterations(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("core.population.iterations", int(result[2].sum()))


def _certificate(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("core.budget.certified", int(result.sum()))
    tracer.count("core.budget.tested", int(result.size))


TARGETS: tuple[Target, ...] = (
    Target("repro.circuit.generator", "generate_circuit", "circuit.generate_circuit"),
    Target("repro.core.yields", "operating_periods", "core.yields.operating_periods"),
    Target("repro.core.yields", "ChipSource.realize", "core.yields.ChipSource.realize"),
    Target(
        "repro.core.yields", "ChipSource.required_shard",
        "core.yields.ChipSource.required_shard",
    ),
    Target("repro.core.yields", "configured_pass", "core.yields.configured_pass"),
    Target("repro.api.stages", "OfflineStage.run", "api.stages.OfflineStage.run"),
    Target("repro.api.stages", "PredictStage.run", "api.stages.PredictStage.run"),
    Target(
        "repro.api.stages", "AlignedTestStage.run", "api.stages.AlignedTestStage.run"
    ),
    Target("repro.core.grouping", "group_and_select", "core.grouping.group_and_select"),
    Target(
        "repro.core.multiplexing", "plan_multiplexing",
        "core.multiplexing.plan_multiplexing",
    ),
    Target(
        "repro.core.holdtime", "compute_hold_bounds", "core.holdtime.compute_hold_bounds"
    ),
    Target(
        "repro.core.alignment", "build_batch_alignment",
        "core.alignment.build_batch_alignment",
    ),
    Target(
        "repro.core.alignment", "solve_alignment", "core.alignment.solve_alignment",
        _rows(1, "centers", "core.alignment.solve_alignment.rows"),
    ),
    Target(
        "repro.core.alignment", "center_sorted_weights",
        "core.alignment.center_sorted_weights",
    ),
    Target(
        "repro.opt.weighted_median", "weighted_median_rows",
        "opt.weighted_median.weighted_median_rows",
    ),
    Target("repro.tester.oracle", "shifted_slack_pass", "tester.oracle.shifted_slack_pass"),
    Target(
        "repro.core.population", "run_batch_population",
        "core.population.run_batch_population", _iterations,
    ),
    Target("repro.core.prediction", "build_predictor", "core.prediction.build_predictor"),
    Target(
        "repro.core.configuration", "build_config_structure",
        "core.configuration.build_config_structure",
    ),
    Target(
        "repro.core.configuration", "configure_chips",
        "core.configuration.configure_chips",
        _rows(1, "lower", "core.configuration.configure_chips.rows"),
    ),
    Target("repro.core.budget", "coarse_epsilon", "core.budget.coarse_epsilon"),
    Target(
        "repro.core.budget", "certify_refinement", "core.budget.certify_refinement",
        _certificate,
    ),
    Target(
        "repro.core.criticality", "member_criticality",
        "core.criticality.member_criticality",
    ),
    Target("repro.results.store", "RunStore.store", "results.store.RunStore.store"),
    Target("repro.results.store", "RunStore.probe", "results.store.RunStore.probe"),
    Target("repro.results.store", "RunStore.load", "results.store.RunStore.load"),
)

#: The shard executor gets its own wrapper: its jobs run on worker threads
#: and are recorded as children of the map span that submitted them.
MAP_NAME = "api.parallel.ShardExecutor.map"
JOB_NAME = "api.parallel.ShardExecutor.job"


def _span_wrapper(tracer: Tracer, original: Callable, target: Target) -> Callable:
    name, hook = target.name, target.hook
    clock = time.perf_counter

    def traced(*args, **kwargs):
        entered = clock()
        opened = tracer.open()
        start = clock()
        try:
            result = original(*args, **kwargs)
        except BaseException:
            tracer.close(opened, name, entered, start, clock())
            raise
        end = clock()
        if hook is not None:
            hook(tracer, args, kwargs, result)
        tracer.close(opened, name, entered, start, end)
        return result

    traced.__wrapped__ = original
    return traced


def _map_wrapper(tracer: Tracer, original: Callable) -> Callable:
    def traced_map(self, fn, items):
        jobs = list(items)
        with tracer.span(MAP_NAME) as map_span:
            started = time.perf_counter()

            def job(*args):
                with tracer.span(JOB_NAME, parent=map_span):
                    return fn(*args)

            result = original(self, job, jobs)
            wall = time.perf_counter() - started
        workers = max(1, min(self.max_workers, len(jobs)))
        tracer.count("api.parallel.capacity_s", wall * workers)
        return result

    traced_map.__wrapped__ = original
    return traced_map


class Instrumentation:
    """Context manager installing span wrappers on every layer target.

    A function is rebound in *every* loaded module whose attribute is the
    original object, so callers that imported it by name (``from m import
    f``) see the wrapper too; methods are rebound on their class.  On exit
    every module attribute holding a wrapper, including ones bound by
    modules first imported while tracing, gets its original back.
    """

    def __init__(self, tracer: Tracer, targets: tuple[Target, ...] = TARGETS):
        self.tracer = tracer
        self.targets = targets
        self._functions: list[tuple[Callable, Callable]] = []
        self._methods: list[tuple[type, str, Callable]] = []

    @staticmethod
    def _replace_everywhere(old: Callable, new: Callable) -> None:
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None) or {}
            for attr, value in list(namespace.items()):
                if value is old:
                    setattr(module, attr, new)

    def _wrap_method(self, owner: type, attr: str, wrapper: Callable) -> None:
        self._methods.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Instrumentation":
        import importlib

        from repro.api.parallel import ShardExecutor

        try:
            for target in self.targets:
                owner: Any = importlib.import_module(target.module)
                *classes, attr = target.attr.split(".")
                for name in classes:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr]
                wrapper = _span_wrapper(self.tracer, original, target)
                if classes:
                    self._wrap_method(owner, attr, wrapper)
                else:
                    self._functions.append((original, wrapper))
                    self._replace_everywhere(original, wrapper)
            self._wrap_method(
                ShardExecutor, "map", _map_wrapper(self.tracer, ShardExecutor.map)
            )
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._methods:
            owner, attr, original = self._methods.pop()
            setattr(owner, attr, original)
        while self._functions:
            original, wrapper = self._functions.pop()
            self._replace_everywhere(wrapper, original)

    def __exit__(self, *exc: object) -> None:
        self.restore()


# ----------------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------------

#: Span names whose summed self time is reported as ``<name>.self_s``.
SELF_TIME = tuple(t.name for t in TARGETS)

#: Span names whose call count is reported as ``<name>.calls``.
CALLS = (
    "core.yields.ChipSource.required_shard",
    "api.stages.OfflineStage.run",
    "api.stages.AlignedTestStage.run",
    "core.alignment.solve_alignment",
    "opt.weighted_median.weighted_median_rows",
    "core.population.run_batch_population",
    "core.configuration.configure_chips",
    "core.budget.coarse_epsilon",
    "core.criticality.member_criticality",
    "results.store.RunStore.store",
    "results.store.RunStore.load",
)

#: Counters reported as they are.
COUNTS = (
    "core.alignment.solve_alignment.rows",
    "core.configuration.configure_chips.rows",
    "core.population.iterations",
)


def layer_metrics(
    spans: list[Span], counters: dict[str, float], window: tuple[float, float]
) -> dict[str, float]:
    """Per-layer self times, call counts and counters of one traced run.

    ``window`` is the ``(start, end)`` of the measured run (scenarios in,
    records out).  Its thread time is its length plus the extra threads
    each shard map kept busy.  ``trace.coverage_pct`` is the self time of
    the layer spans that start inside the window, as a share of its thread
    time; ``trace.overhead_pct`` is the tracer's own time inside the
    window, as a share of the thread time the run would take untraced.
    """
    own = self_times(spans)
    self_s = dict.fromkeys(SELF_TIME, 0.0)
    calls = dict.fromkeys(CALLS, 0)
    covered = 0.0
    tracing = 0.0
    maps = 0.0
    busy = 0.0
    for span in spans:
        inside = window[0] <= span.start <= window[1]
        if inside:
            tracing += span.overhead
        if span.name in self_s:
            self_s[span.name] += own[span.id]
            if inside:
                covered += own[span.id]
        if span.name in calls:
            calls[span.name] += 1
        if span.name == MAP_NAME:
            maps += span.duration
        elif span.name == JOB_NAME:
            busy += span.duration
    metrics: dict[str, float] = {f"{name}.self_s": v for name, v in self_s.items()}
    metrics.update({f"{name}.calls": n for name, n in calls.items()})
    metrics.update({name: counters.get(name, 0) for name in COUNTS})
    tested = counters.get("core.budget.tested", 0)
    certified = counters.get("core.budget.certified", 0)
    metrics["core.budget.certified_frac"] = certified / tested if tested else 0.0
    metrics["core.budget.rerun_chips"] = tested - certified
    metrics[f"{MAP_NAME}.wall_s"] = maps
    capacity = counters.get("api.parallel.capacity_s", 0.0)
    metrics["api.parallel.busy_frac"] = busy / capacity if capacity else 0.0
    # Shard threads add (workers - 1) x map wall of thread time to the run.
    thread_time = window[1] - window[0] + capacity - maps
    metrics["trace.coverage_pct"] = 100.0 * covered / thread_time
    metrics["trace.overhead_pct"] = 100.0 * tracing / (thread_time - tracing)
    return metrics
