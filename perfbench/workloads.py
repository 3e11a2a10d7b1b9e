"""The three workloads: set-up, timed runs and what they measure.

``fcx40-tighten`` and ``hcas-sweep`` repeat one batched sweep
(``certify_local_robustness(engine="batched")``, no cache) over their
seeded regions until the run's time is up; every pass is one "request".
``hcas-service`` is a closed loop: two asyncio clients, each waiting for
its reply before sending its next request, feed a
``CertificationFrontend`` backed by a two-worker ``ShardedScheduler``
(pool transport) over a fresh on-disk cache.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import checks, inputs
from perfbench.tracing import Tracer

from repro.core.config import CraftConfig, ServiceConfig
from repro.engine.sharded import ShardedScheduler
from repro.experiments import model_zoo
from repro.service import CertificationFrontend
from repro.verify.robustness import certify_local_robustness

#: Passes every batched run makes even when its time is up earlier.
MIN_PASSES = 3
#: Requests per client in one service pass, and in the warm-up.
SERVICE_PASS_REQUESTS = 64
SERVICE_WARMUP_REQUESTS = 32
#: Service passes every run makes even when its time is up earlier.
SERVICE_MIN_PASSES = 2
SERVICE_WORKERS = 2

#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("solvers.solve_fixpoint_batch.s", "s"),
    ("solvers.solve_fixpoint_batch.calls", "count"),
    ("craft.prediction_pass.s", "s"),
    ("craft.phase1.s", "s"),
    ("craft.phase2.s", "s"),
    ("craft.phase1.iterations", "count"),
    ("craft.phase2.iterations", "count"),
    ("craft.peak_error_terms", "count"),
    ("craft.tighten_yield", "ratio"),
    ("chz.affine.s", "s"),
    ("chz.affine.calls", "count"),
    ("chz.affine.computed_mb", "MB"),
    ("chz.relu.s", "s"),
    ("chz.sum.s", "s"),
    ("chz.concretize_bounds.s", "s"),
    ("chz.contains.s", "s"),
    ("chz.consolidate.s", "s"),
    ("chz.select.s", "s"),
    ("batched_domains.affine.s", "s"),
    ("batched_domains.relu.s", "s"),
    ("escalation.escalated", "count"),
    ("escalation.resolve_yield", "ratio"),
    ("cache.lookup.s", "s"),
    ("cache.lookup.calls", "count"),
    ("cache.admit.s", "s"),
    ("cache.admit.calls", "count"),
    ("cache.refresh.s", "s"),
    ("cache.hit_rate", "ratio"),
    ("cache.dominance_hits", "count"),
    ("cache.disk_bytes", "bytes"),
    ("sharded.certify.s", "s"),
    ("sharded.worker_busy.s", "s"),
    ("sharded.shards", "count"),
    ("sharded.worker_utilisation", "ratio"),
    ("frontend.submit.s", "s"),
    ("frontend.queue_wait.s", "s"),
    ("frontend.engine_batches", "count"),
    ("frontend.cells_per_batch", "count"),
    ("frontend.hit_rate", "ratio"),
    ("trace.overhead_regions_per_s", "1/s"),
)


class Tally:
    """Running totals over a run's verdicts.

    Results are counted as they arrive and then dropped, so the
    benchmark's own bookkeeping stays out of ``peak_rss_mb``.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        #: Per request key, one ``outcome:certified`` code per query
        #: (``None`` for a query without verdict); keys are stable across
        #: runs of one seed, so a traced and an untraced run compare.
        self.verdicts: Dict[Tuple, Tuple[Optional[str], ...]] = {}
        self.engine_contained = 0
        self.engine_certified = 0
        self.phase1_iterations = 0
        self.phase2_iterations = 0
        self.peak_error_terms = 0

    def add(self, key: Tuple, results: list, engine: Optional[List[bool]] = None) -> None:
        """Count one request; ``engine`` flags the engine-computed results
        (default: all), the ones the craft metrics describe."""
        codes = []
        for position, result in enumerate(results):
            self.attempted += 1
            if result is None:
                self.failed += 1
                codes.append(None)
                continue
            codes.append(f"{result.outcome.value}:{int(result.certified)}")
            if engine is None or engine[position]:
                self.engine_contained += int(result.contained)
                self.engine_certified += int(result.certified)
                self.phase1_iterations += result.iterations_phase1
                self.phase2_iterations += result.iterations_phase2
                self.peak_error_terms = max(self.peak_error_terms, result.peak_error_terms or 0)
        self.verdicts[key] = tuple(codes)


def flips(first: Tally, second: Tally) -> Tuple[int, int]:
    """``(compared, differing)`` queries answered in both tallies."""
    compared = differing = 0
    for key in first.verdicts.keys() & second.verdicts.keys():
        for a, b in zip(first.verdicts[key], second.verdicts[key]):
            if a is not None and b is not None:
                compared += 1
                differing += int(a != b)
    return compared, differing


@dataclass
class Run:
    """One timed run: passes of a sweep, or one closed-loop service run."""

    #: Wall seconds per request (sweep pass or service request).
    latencies: List[float]
    regions_per_s: float
    certified: int
    tally: Tally
    #: Answered queries the correctness check samples from.
    queries: List[checks.Query]
    #: Sweep passes in the run (1 for the service).
    passes: int = 1
    errors: List[str] = field(default_factory=list)
    cache_disk_bytes: float = 0
    #: ``FrontendStats`` of each service pass.
    frontend_stats: list = field(default_factory=list)


def certify_batched(model, xs, labels, config):
    """The sweep the batched workloads time."""
    return certify_local_robustness(model, xs, labels, inputs.EPSILON, config, engine="batched")


class BatchedWorkload:
    """A batched sweep, repeated for the run's time.

    Pass ``k`` certifies draw ``k`` of the seeded regions (the warm-up
    uses draw 0).  On FCx40 the phase-two iteration counts react to
    jitter as small as 1e-5, so one draw's work is a matter of luck, and
    a run covers many draws.  Throughput is taken from the fastest pass:
    interference from other tenants of the host only ever adds time, and
    over ten runs of one commit the fastest pass spread by 0.05–0.06 of
    its median where the median pass spread by 0.10–0.15.
    """

    def __init__(self, name: str, model_name: str, regions: Callable, seed: int, certify: Callable = certify_batched):
        self.name = name
        self.model_name = model_name
        self.seed = seed
        self.config = CraftConfig()
        self.certify = certify
        self.regions = regions
        dataset = model_zoo.get_dataset(model_zoo.MODEL_SPECS[model_name].dataset, "smoke")
        self.x_test, self.y_test = dataset.x_test, dataset.y_test

    def draw(self, index: int):
        return self.regions(self.x_test, self.y_test, self.seed, index)

    def setup(self):
        """Build the model and run one full warm-up pass; returns the model."""
        model_zoo.clear_caches()
        model, _ = model_zoo.get_model(self.model_name, "smoke")
        xs, labels = self.draw(0)
        self.certify(model, xs, labels, self.config)
        return model

    def run(self, model, seconds: float, tracer: Optional[Tracer] = None) -> Run:
        times: List[float] = []
        certified: List[int] = []
        errors: List[str] = []
        tally = Tally()
        queries: List[checks.Query] = []
        if tracer is not None:
            tracer.install()
        try:
            deadline = time.perf_counter() + seconds
            while len(times) < MIN_PASSES or time.perf_counter() < deadline:
                xs, labels = self.draw(len(times) + 1)
                start = time.perf_counter()
                try:
                    results = self.certify(model, xs, labels, self.config)
                except Exception as error:  # a failed pass fails all its queries
                    results = [None] * xs.shape[0]
                    errors.append(repr(error))
                times.append(time.perf_counter() - start)
                tally.add((len(times),), results)
                certified.append(sum(bool(result is not None and result.certified) for result in results))
                if not queries:
                    queries = [
                        checks.Query(xs[index], int(labels[index]), inputs.EPSILON, result)
                        for index, result in enumerate(results)
                    ]
        finally:
            if tracer is not None:
                tracer.uninstall()
        return Run(
            latencies=times,
            # Every pass certifies the same number of regions.
            regions_per_s=len(queries) / min(times),
            certified=int(statistics.median(certified)),
            tally=tally,
            queries=queries,
            passes=len(times),
            errors=errors,
        )


class ServiceWorkload:
    """Closed-loop clients over the frontend, scheduler and on-disk cache.

    One pass serves the first ``SERVICE_PASS_REQUESTS`` requests of each
    client's plan on a fresh stack: pool, frontend and an empty cache.
    Passes repeat until the run's time is up and, as for the batched
    workloads, throughput is taken from the fastest pass.  A fixed plan
    per pass also fixes how large the cache grows, and its lookups slow
    down as it grows.
    """

    name = "hcas-service"
    model_name = "HCAS-FCx100"

    def __init__(self, seed: int, out_dir: str, backend: Optional[Callable] = None):
        self.seed = seed
        self.out_dir = out_dir
        self.config = CraftConfig.escalation()
        self.make_backend = backend if backend is not None else self._scheduler
        dataset = model_zoo.get_dataset("hcas", "smoke")
        self.x_test, self.y_test = dataset.x_test, dataset.y_test

    def _scheduler(self, model, cache_dir: str):
        return ShardedScheduler(
            model, self.config, num_workers=SERVICE_WORKERS, cache_dir=cache_dir, keep_abstractions=False
        )

    def setup(self):
        """Build the model, then the whole stack on a throwaway cache, and
        serve a shorter pass as the warm-up; returns the model."""
        model_zoo.clear_caches()
        model, _ = model_zoo.get_model(self.model_name, "smoke")
        plans = inputs.service_plan(self.x_test, self.y_test, self.seed)
        self._serve(model, plans, SERVICE_WARMUP_REQUESTS, Tally(), [], 0, None)
        return model

    def run(self, model, seconds: float, tracer: Optional[Tracer] = None) -> Run:
        plans = inputs.service_plan(self.x_test, self.y_test, self.seed)
        for plan in plans:
            plan.request(SERVICE_PASS_REQUESTS - 1)
        tally = Tally()
        latencies: List[float] = []
        rates: List[float] = []
        certified: List[int] = []
        stats: list = []
        disk_bytes: List[int] = []
        queries: List[checks.Query] = []
        deadline = time.perf_counter() + seconds
        while len(rates) < SERVICE_MIN_PASSES or time.perf_counter() < deadline:
            rate, pass_queries, pass_stats, pass_bytes = self._serve(
                model, plans, SERVICE_PASS_REQUESTS, tally, latencies, len(rates), tracer
            )
            rates.append(rate)
            certified.append(sum(int(query.result is not None and query.result.certified) for query in pass_queries))
            stats.append(pass_stats)
            disk_bytes.append(pass_bytes)
            queries = queries or pass_queries
        return Run(
            latencies=latencies,
            regions_per_s=max(rates),
            certified=int(statistics.median(certified)),
            tally=tally,
            queries=queries,
            passes=len(rates),
            cache_disk_bytes=statistics.mean(disk_bytes),
            frontend_stats=stats,
        )

    def _serve(self, model, plans, requests, tally, latencies, number, tracer):
        """One pass on a fresh stack; returns ``(cells served per second,
        queries in key order, frontend stats, cache bytes on disk)``."""
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        backend = self.make_backend(model, cache_dir)
        try:
            frontend = CertificationFrontend(ServiceConfig())
            fingerprint = frontend.register_model(model, self.config, backend=backend, cache_dir=cache_dir)
            # The pool forked above, so worker processes never run wrappers.
            if tracer is not None:
                tracer.install()
            try:
                rate, queries = asyncio.run(
                    self._drive(frontend, fingerprint, plans, requests, tally, latencies, number)
                )
            finally:
                if tracer is not None:
                    tracer.uninstall()
            disk_bytes = sum(entry.stat().st_size for entry in os.scandir(cache_dir) if entry.is_file())
        finally:
            backend.close()
            shutil.rmtree(cache_dir, ignore_errors=True)
        return rate, queries, frontend.stats, disk_bytes

    async def _drive(self, frontend, fingerprint, plans, requests, tally, latencies, number):
        queries: List[Tuple[Tuple[int, int, int], checks.Query]] = []
        start = time.perf_counter()
        served = 0

        async def client(client_number, plan):
            nonlocal served
            for index in range(requests):
                request = plan.request(index)
                sent = time.perf_counter()
                handle = await frontend.submit(fingerprint, request.centers, request.labels, request.epsilon)
                events = sorted(await handle.collect(), key=lambda event: event.index)
                latencies.append(time.perf_counter() - sent)
                results = [event.result if event.status == "served" else None for event in events]
                served += sum(result is not None for result in results)
                tally.add((number, client_number, index), results, [event.cache_tier is None for event in events])
                queries.extend(
                    (
                        (client_number, index, cell),
                        checks.Query(request.centers[cell], int(request.labels[cell]), request.epsilon, result),
                    )
                    for cell, result in enumerate(results)
                )

        await asyncio.gather(*(client(client_number, plan) for client_number, plan in enumerate(plans)))
        drain = time.perf_counter() - start
        await frontend.close()
        # The clients finish in any order; sort by key.
        return served / drain, [query for _key, query in sorted(queries, key=lambda item: item[0])]


def make_workload(name: str, seed: int, out_dir: str):
    if name == "fcx40-tighten":
        return BatchedWorkload(name, "FCx40", inputs.fcx40_regions, seed)
    if name == "hcas-sweep":
        return BatchedWorkload(name, "HCAS-FCx100", inputs.hcas_regions, seed)
    if name == "hcas-service":
        return ServiceWorkload(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("fcx40-tighten", "hcas-sweep", "hcas-service")
CHECK_SIZES = {"fcx40-tighten": 4, "hcas-sweep": 24, "hcas-service": 24}


class Observations:
    """What the per-layer metrics need beyond span times, collected by
    tracer observers while a traced run is active."""

    def __init__(self):
        self.affine_bytes = 0
        self.lookups = 0
        self.hits = 0
        self.dominance_hits = 0
        self.reports: list = []
        self.shards = 0
        self.worker_busy = 0.0
        self.worker_capacity = 0.0
        self.queue_wait = 0.0
        self._certify_starts: List[Tuple[np.ndarray, float]] = []
        self._lock = threading.Lock()

    def observers(self) -> Dict[str, Callable]:
        return {
            "chz.affine": self._affine,
            "cache.lookup": self._lookup,
            "scheduler.certify": self._report,
            "sharded.certify": self._sharded,
            "frontend.run_batch": self._run_batch,
        }

    def _affine(self, args, kwargs, result, start, end):
        stack = args[0]
        weight = args[1] if len(args) > 1 else kwargs["weight"]
        elements = (
            np.size(weight)
            + stack.batch_size * stack.dim * stack.num_generators
            + result.batch_size * result.dim * result.num_generators
        )
        self.affine_bytes += 8 * elements

    def _lookup(self, args, kwargs, result, start, end):
        # The frontend looks up on the event loop, the scheduler on an
        # executor thread.
        with self._lock:
            self.lookups += 1
            if result is not None:
                self.hits += 1
                self.dominance_hits += int(result.cache_tier == "dominance")

    def _report(self, args, kwargs, result, start, end):
        with self._lock:
            self.reports.append(result)

    def _sharded(self, args, kwargs, result, start, end):
        scheduler = args[0]
        xs = np.atleast_2d(np.asarray(args[1] if len(args) > 1 else kwargs["xs"], dtype=float))
        # The frontend stamps cells with time.monotonic(); convert the
        # span's perf_counter start to that clock.
        started = time.monotonic() - (time.perf_counter_ns() - start) / 1e9
        with self._lock:
            self.reports.append(result)
            self.shards += result.num_batches
            self.worker_busy += sum(stats.elapsed_seconds for stats in scheduler.stage_stats)
            self.worker_capacity += (end - start) / 1e9 * result.num_workers
            self._certify_starts.append((xs, started))

    def _run_batch(self, args, kwargs, result, start, end):
        batch = args[2]
        xs = np.stack([cell.query.center for cell in batch])
        with self._lock:
            for position, (certified_xs, started) in enumerate(self._certify_starts):
                if certified_xs.shape == xs.shape and np.array_equal(certified_xs, xs):
                    del self._certify_starts[position]
                    self.queue_wait += sum(started - cell.admitted_at for cell in batch)
                    break


def layer_metrics(tracer: Tracer, observed: Observations, run: Run) -> Dict[str, float]:
    """Every per-layer metric of one traced run, per pass.
    ``trace.overhead_regions_per_s`` is filled in by the caller, which
    also has the untraced run."""
    summary = tracer.summary()
    per = run.passes

    def seconds(name):
        return summary.get(name, {}).get("seconds", 0.0) / per

    def calls(name):
        return summary.get(name, {}).get("calls", 0) / per

    tally = run.tally
    stages = [row for report in observed.reports for row in report.stages]
    attempted = sum(row["attempted"] for row in stages)
    stats = run.frontend_stats
    engine_batches = sum(entry.engine_batches for entry in stats)
    submitted = sum(entry.submitted for entry in stats)
    metrics = {
        "solvers.solve_fixpoint_batch.s": seconds("solvers.solve_fixpoint_batch"),
        "solvers.solve_fixpoint_batch.calls": calls("solvers.solve_fixpoint_batch"),
        "craft.prediction_pass.s": seconds("craft.prediction_pass"),
        "craft.phase1.s": seconds("craft.phase1"),
        "craft.phase2.s": seconds("craft.phase2"),
        "craft.phase1.iterations": tally.phase1_iterations / per,
        "craft.phase2.iterations": tally.phase2_iterations / per,
        "craft.peak_error_terms": tally.peak_error_terms,
        "craft.tighten_yield": (
            tally.engine_certified / tally.engine_contained if tally.engine_contained else 0.0
        ),
        "chz.affine.s": seconds("chz.affine"),
        "chz.affine.calls": calls("chz.affine"),
        "chz.affine.computed_mb": observed.affine_bytes / 1e6 / per,
        "chz.relu.s": seconds("chz.relu"),
        "chz.sum.s": seconds("chz.sum"),
        "chz.concretize_bounds.s": seconds("chz.concretize_bounds"),
        "chz.contains.s": seconds("chz.contains"),
        "chz.consolidate.s": seconds("chz.consolidate"),
        "chz.select.s": seconds("chz.select"),
        "batched_domains.affine.s": seconds("batched_domains.affine"),
        "batched_domains.relu.s": seconds("batched_domains.relu"),
        "escalation.escalated": sum(row["escalated"] for row in stages) / per,
        "escalation.resolve_yield": sum(row["resolved"] for row in stages) / attempted if attempted else 0.0,
        "cache.lookup.s": seconds("cache.lookup"),
        "cache.lookup.calls": calls("cache.lookup"),
        "cache.admit.s": seconds("cache.admit"),
        "cache.admit.calls": calls("cache.admit"),
        "cache.refresh.s": seconds("cache.refresh"),
        "cache.hit_rate": observed.hits / observed.lookups if observed.lookups else 0.0,
        "cache.dominance_hits": observed.dominance_hits / per,
        "cache.disk_bytes": run.cache_disk_bytes,
        "sharded.certify.s": seconds("sharded.certify"),
        "sharded.worker_busy.s": observed.worker_busy / per,
        "sharded.shards": observed.shards / per,
        "sharded.worker_utilisation": (
            observed.worker_busy / observed.worker_capacity if observed.worker_capacity else 0.0
        ),
        "frontend.submit.s": seconds("frontend.submit"),
        "frontend.queue_wait.s": observed.queue_wait / per,
        "frontend.engine_batches": engine_batches / per,
        "frontend.cells_per_batch": (
            sum(entry.engine_cells for entry in stats) / engine_batches if engine_batches else 0.0
        ),
        "frontend.hit_rate": sum(entry.cache_hits for entry in stats) / submitted if submitted else 0.0,
    }
    return metrics
