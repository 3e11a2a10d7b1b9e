"""Fault-injection battery: the cluster survives what the faults break.

The PR's central claim — under seeded worker kills, hangs and dropped
connections, every submitted cell resolves to **exactly one** verdict
**identical** to the fault-free run — is pinned here against real worker
processes over the real TCP transport.  Faults are deterministic
(:class:`repro.service.faults.FaultSpec`), so every scenario replays the
same crash at the same task on every run.
"""

import queue
import time

import numpy as np
import pytest

from repro.core.config import CraftConfig, ServiceConfig
from repro.engine.sharded import ShardedScheduler
from repro.exceptions import ConfigurationError, VerificationError
from repro.mondeq.model import MonDEQ
from repro.service.cluster import ClusterScheduler
from repro.service.faults import ACTIONS, FaultPlan, FaultSpec, retry_backoff

#: Small + untrained: structural transport/fault semantics do not need a
#: trained model, and every second here runs hundreds of times in CI.
EPSILON = 0.03


@pytest.fixture(scope="module")
def cluster_workload():
    model = MonDEQ.random(
        input_dim=5, latent_dim=6, output_dim=3, monotonicity=8.0, seed=3
    )
    xs = np.random.default_rng(0).uniform(0.2, 0.8, size=(12, 5))
    labels = np.array([int(p) for p in model.predict_batch(xs)])
    # A couple of deliberately wrong targets: the verdict set must
    # contain more than one outcome for "zero flips" to mean anything.
    labels[3] = (labels[3] + 1) % 3
    labels[9] = (labels[9] + 1) % 3
    config = CraftConfig(slope_optimization="none")
    return model, xs, labels, config


@pytest.fixture(scope="module")
def fault_free_verdicts(cluster_workload):
    model, xs, labels, config = cluster_workload
    report = ShardedScheduler(
        model, config, num_workers=1, start_method="inline"
    ).certify(xs, labels, EPSILON)
    return [r.outcome for r in report.results]


def _service(**overrides):
    defaults = dict(
        shard_timeout_seconds=8.0,
        retry_backoff_seconds=0.05,
        retry_backoff_factor=1.5,
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


class TestKillRecovery:
    def test_worker_kill_mid_batch_reassigns_without_flips(
        self, cluster_workload, fault_free_verdicts
    ):
        """A worker killed after claiming its first shard: the shard is
        reassigned, the slot respawned, and the sweep's verdicts are
        bit-for-bit the fault-free ones — one final verdict per cell."""
        model, xs, labels, config = cluster_workload
        # Slot 1 holds its first shard for a second before reporting, so
        # slot 0 claims a shard (and dies) even when its process comes up
        # after slot 1 could have drained the whole sweep alone.
        faults = FaultSpec(
            seed=11, scripted=((0, 0, "kill"), (1, 0, "delay")), delay_seconds=1.0
        )
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=3,
            service=_service(), faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
        assert len(report.results) == len(xs)
        assert all(result is not None for result in report.results)
        assert [r.outcome for r in report.results] == fault_free_verdicts
        stats = scheduler.cluster_stats
        assert stats.retries >= 1
        assert stats.respawns >= 1
        assert any(w.startswith("0:0:") for w in stats.dead_workers)

    def test_repeated_kills_still_converge(
        self, cluster_workload, fault_free_verdicts
    ):
        """Both workers' first generations die; respawned generations
        finish the sweep (generation > 0 never replays the script)."""
        model, xs, labels, config = cluster_workload
        faults = FaultSpec(seed=12, scripted=((0, 0, "kill"), (1, 0, "kill")))
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=3,
            service=_service(), faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
        assert [r.outcome for r in report.results] == fault_free_verdicts
        assert scheduler.cluster_stats.respawns >= 2
        assert len(scheduler.cluster_stats.dead_workers) >= 2


class TestHealthCheck:
    def test_hung_worker_marked_dead_within_timeout(
        self, cluster_workload, fault_free_verdicts
    ):
        """A worker hanging past the shard lease (delay fault longer than
        ``shard_timeout_seconds``) is marked dead by the health-check and
        its shard reassigned; verdicts are unchanged."""
        model, xs, labels, config = cluster_workload
        service = _service(shard_timeout_seconds=0.6)
        faults = FaultSpec(seed=13, scripted=((0, 0, "delay"),), delay_seconds=30.0)
        start = time.monotonic()
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=3,
            service=service, faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
            elapsed = time.monotonic() - start
            assert [r.outcome for r in report.results] == fault_free_verdicts
            stats = scheduler.cluster_stats
            assert any(w.startswith("0:0:") for w in stats.dead_workers)
            assert stats.retries >= 1
            # Recovery came from the lease expiring, not from waiting out
            # the 30 s hang (generous bound for loaded CI runners).
            assert elapsed < 25.0

    def test_dropped_result_recovers(self, cluster_workload, fault_free_verdicts):
        """A dropped connection (computed, never reported) is
        indistinguishable from a hang; the lease machinery recovers it."""
        model, xs, labels, config = cluster_workload
        service = _service(shard_timeout_seconds=0.6)
        faults = FaultSpec(seed=14, scripted=((1, 0, "drop"),))
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=3,
            service=service, faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
        assert [r.outcome for r in report.results] == fault_free_verdicts
        assert scheduler.cluster_stats.retries >= 1


class TestRetryLimit:
    def test_exhausted_retries_fail_only_that_sweep(
        self, cluster_workload, fault_free_verdicts, monkeypatch
    ):
        """With ``RETRY_MAX_ATTEMPTS`` at 1 the killed worker's shard gets
        no second attempt: its sweep fails with the give-up message, and
        the respawned worker serves the next sweep at the usual limit."""
        import repro.service.cluster as cluster

        model, xs, labels, config = cluster_workload
        monkeypatch.setattr(cluster, "RETRY_MAX_ATTEMPTS", 1)
        faults = FaultSpec(seed=15, scripted=((0, 0, "kill"),))
        with ClusterScheduler(
            model, config, num_workers=1, batch_size=3,
            service=_service(), faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            with pytest.raises(VerificationError, match="giving up"):
                scheduler.certify(xs, labels, EPSILON)
            monkeypatch.undo()
            report = scheduler.certify(xs, labels, EPSILON)
        assert [r.outcome for r in report.results] == fault_free_verdicts
        assert scheduler.cluster_stats.respawns == 1


class TestFixedPool:
    def test_pool_keeps_its_constructed_size(self, cluster_workload, fault_free_verdicts):
        """Twelve one-sample shards queue behind two workers: the pool
        stays at its two slots, with no respawn and no worker marked dead."""
        model, xs, labels, config = cluster_workload
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=1,
            service=_service(), timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
            assert [r.outcome for r in report.results] == fault_free_verdicts
            assert sorted(scheduler._local_workers) == [0, 1]
            assert scheduler.cluster_stats.respawns == 0
            assert not scheduler.cluster_stats.dead_workers

    def test_close_stops_a_respawned_worker_through_the_sentinel(
        self, cluster_workload, fault_free_verdicts
    ):
        """A worker blocks on the task queue until the stop sentinel:
        ``close`` ends the sole worker, the respawn of a killed one, with
        exit code 0 rather than terminating it."""
        model, xs, labels, config = cluster_workload
        faults = FaultSpec(seed=16, scripted=((0, 0, "kill"),))
        with ClusterScheduler(
            model, config, num_workers=1, batch_size=3,
            service=_service(), faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
            assert [r.outcome for r in report.results] == fault_free_verdicts
            assert scheduler.cluster_stats.respawns == 1
            (worker,) = scheduler._local_workers.values()
        assert worker.exitcode == 0


class TestExactlyOnce:
    def test_duplicate_results_are_dropped_first_wins(self, cluster_workload):
        """A straggler result for an already-finished sweep's task (the
        hung worker finally reporting) lands in the duplicate bin, never
        in the waterfall — the router drops it by its (sweep, task)
        stamp without any sweep having to be in flight."""
        model, xs, labels, config = cluster_workload
        with ClusterScheduler(
            model, config, num_workers=1, batch_size=4,
            service=_service(), timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs[:4], labels[:4], EPSILON)
            assert all(r is not None for r in report.results)
            # Forge a duplicate for a task of the (now finished) sweep 0
            # from an unknown worker; the router must bin it, never
            # double-deliver it.
            before = scheduler.cluster_stats.duplicates_dropped
            scheduler._result_queue.put(("result", (0, 0), "9:9:9", ([0], [], 0.0)))
            deadline = time.monotonic() + 10.0
            while (
                scheduler.cluster_stats.duplicates_dropped < before + 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert scheduler.cluster_stats.duplicates_dropped == before + 1
            # The forged straggler reached no sweep: a fresh certify
            # still sees exactly its own verdicts.
            again = scheduler.certify(xs[:4], labels[:4], EPSILON)
            assert [r.outcome for r in again.results] == [
                r.outcome for r in report.results
            ]

    def test_every_cell_exactly_one_verdict_under_random_faults(
        self, cluster_workload, fault_free_verdicts
    ):
        """Rate-based mixed faults (kill+delay+drop) across a sweep:
        conservation and zero flips hold without scripting."""
        model, xs, labels, config = cluster_workload
        service = _service(shard_timeout_seconds=0.8)
        faults = FaultSpec(
            seed=2023, kill_rate=0.15, delay_rate=0.1, drop_rate=0.1,
            delay_seconds=2.0, max_faults=3,
        )
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=2,
            service=service, faults=faults, timeout_seconds=120.0,
        ) as scheduler:
            report = scheduler.certify(xs, labels, EPSILON)
        assert len(report.results) == len(xs)
        assert all(result is not None for result in report.results)
        assert [r.outcome for r in report.results] == fault_free_verdicts


class TestDeterminism:
    @staticmethod
    def _schedule(plan: FaultPlan, count: int = 50):
        return [plan.next_action() for _ in range(count)]

    def test_fault_plan_is_a_pure_function_of_the_spec(self):
        spec = FaultSpec(seed=5, kill_rate=0.2, delay_rate=0.3, drop_rate=0.1)
        seq_a = self._schedule(spec.plan_for(0, 0))
        seq_b = self._schedule(spec.plan_for(0, 0))
        assert seq_a == seq_b
        # Another slot (or generation) draws an independent schedule.
        assert seq_a != self._schedule(spec.plan_for(1, 0))
        assert seq_a != self._schedule(spec.plan_for(0, 1))
        assert all(action in ACTIONS for action, _ in seq_a)

    def test_scripted_override_consumes_exactly_one_draw(self):
        """A scripted fault at seq 0 must not shift the drawn schedule of
        every later task (one rng draw per task, always)."""
        base = FaultSpec(seed=9, kill_rate=0.25, delay_rate=0.25)
        scripted = FaultSpec(
            seed=9, kill_rate=0.25, delay_rate=0.25, scripted=((0, 0, "drop"),)
        )
        plain = self._schedule(base.plan_for(0, 0), 30)
        overridden = self._schedule(scripted.plan_for(0, 0), 30)
        assert overridden[0][0] == "drop"
        assert overridden[1:] == plain[1:]
        # Respawned generations never replay the script.
        assert self._schedule(scripted.plan_for(0, 1), 30) == self._schedule(
            base.plan_for(0, 1), 30
        )

    def test_max_faults_caps_injection(self):
        spec = FaultSpec(seed=1, kill_rate=1.0, max_faults=2)
        plan = spec.plan_for(0, 0)
        actions = [plan.next_action()[0] for _ in range(10)]
        assert actions[:2] == ["kill", "kill"]
        assert actions[2:] == ["none"] * 8
        assert plan.faults_injected == 2

    def test_retry_backoff_schedule_is_deterministic(self):
        schedule = [retry_backoff(k, 0.25, 2.0, seed=42) for k in range(1, 6)]
        again = [retry_backoff(k, 0.25, 2.0, seed=42) for k in range(1, 6)]
        assert schedule == again
        # Exponential shape survives the jitter band [0.8, 1.2).
        for attempt, delay in enumerate(schedule, start=1):
            raw = 0.25 * 2.0 ** (attempt - 1)
            assert 0.8 * raw <= delay <= 1.2 * raw or delay == 30.0
        assert retry_backoff(30, 0.25, 2.0, seed=42) == 30.0  # capped
        assert schedule != [retry_backoff(k, 0.25, 2.0, seed=43) for k in range(1, 6)]

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kill_rate=1.5)
        with pytest.raises(ConfigurationError):
            FaultSpec(kill_rate=0.6, delay_rate=0.6)
        with pytest.raises(ConfigurationError):
            FaultSpec(scripted=((0, 0, "explode"),))
        with pytest.raises(ConfigurationError):
            retry_backoff(0, 0.25, 2.0)


class TestClusterIsAScheduler:
    def test_no_inline_mode(self, cluster_workload):
        model, _, _, config = cluster_workload
        with pytest.raises(ConfigurationError):
            ClusterScheduler(model, config, start_method="inline")

    def test_shared_cache_across_cluster_sweeps(self, cluster_workload, tmp_path):
        """Worker-admitted verdicts answer the parent's second sweep."""
        model, xs, labels, config = cluster_workload
        with ClusterScheduler(
            model, config, num_workers=2, batch_size=3,
            cache_dir=str(tmp_path / "cache"), service=_service(),
            timeout_seconds=120.0,
        ) as scheduler:
            cold = scheduler.certify(xs, labels, EPSILON)
            assert cold.cache_hits == 0
            warm = scheduler.certify(xs, labels, EPSILON)
        assert warm.cache_hits == len(xs)
        assert [r.outcome for r in warm.results] == [
            r.outcome for r in cold.results
        ]
