"""Tests of the benchmark itself: seeded inputs, wrapper hygiene, failure
accounting and agreement with BENCHMARK.json."""

import json
import os
import sys

import numpy as np
import pytest

from perfbench import inputs, run, workloads
from perfbench.tracing import TARGETS, Tracer, resolve
from repro.experiments import model_zoo

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def plan_bytes(plans, requests):
    """Bytes of each client's first ``requests`` requests."""
    return [
        b"".join(
            plan.request(index).centers.tobytes()
            + plan.request(index).labels.tobytes()
            + repr((plan.request(index).epsilon, plan.request(index).kinds)).encode()
            for index in range(requests)
        )
        for plan in plans
    ]


@pytest.fixture(scope="module")
def datasets():
    return {name: model_zoo.get_dataset(name, "smoke") for name in ("mnist_like", "hcas")}


class TestInputs:
    @pytest.mark.parametrize(
        "regions, dataset", [(inputs.fcx40_regions, "mnist_like"), (inputs.hcas_regions, "hcas")]
    )
    def test_regions_are_byte_identical_for_one_seed(self, datasets, regions, dataset):
        data = datasets[dataset]
        first = regions(data.x_test, data.y_test, 5, 3)
        second = regions(data.x_test, data.y_test, 5, 3)
        assert first[0].tobytes() == second[0].tobytes()
        assert first[1].tobytes() == second[1].tobytes()
        other = regions(data.x_test, data.y_test, 6, 3)
        assert other[0].tobytes() != first[0].tobytes()
        assert np.all((first[0] >= 0.0) & (first[0] <= 1.0))

    def test_service_plan_is_identical_for_one_seed(self, datasets):
        data = datasets["hcas"]
        first = plan_bytes(inputs.service_plan(data.x_test, data.y_test, 9), 50)
        second = plan_bytes(inputs.service_plan(data.x_test, data.y_test, 9), 50)
        other = plan_bytes(inputs.service_plan(data.x_test, data.y_test, 10), 50)
        assert first == second
        assert first != other

    def test_service_plan_mixes_fresh_children_and_repeats(self, datasets):
        data = datasets["hcas"]
        plan = inputs.service_plan(data.x_test, data.y_test, 2)[0]
        kinds = [kind for index in range(100) for kind in plan.request(index).kinds]
        assert {"fresh", "child", "repeat"} == set(kinds)
        for index in range(100):
            request = plan.request(index)
            if "fresh" in request.kinds:
                assert request.epsilon == inputs.EPSILON
            if "child" in request.kinds:
                assert request.epsilon == inputs.EPSILON / 2

    def test_children_lie_strictly_inside_an_earlier_fresh_cell(self, datasets):
        data = datasets["hcas"]
        plan = inputs.service_plan(data.x_test, data.y_test, 4)[1]
        fresh = []
        for index in range(80):
            request = plan.request(index)
            for center, kind in zip(request.centers, request.kinds):
                if kind == "child":
                    gaps = np.abs(np.asarray(fresh) - center).max(axis=1)
                    assert gaps.min() < inputs.EPSILON / 2
            fresh.extend(
                center for center, kind in zip(request.centers, request.kinds) if kind == "fresh"
            )

    def test_subsample_is_seeded(self):
        assert inputs.subsample(100, 8, 3).tolist() == inputs.subsample(100, 8, 3).tolist()
        assert len(set(inputs.subsample(100, 8, 3).tolist())) == 8


def _attributes():
    """Every attribute the tracer may replace, by identity."""
    snapshot = {}
    for _name, module_name, qualname in TARGETS:
        owner, attribute = resolve(module_name, qualname)
        snapshot[(id(owner), attribute)] = owner.__dict__[attribute]
    for key, module in list(sys.modules.items()):
        if key.startswith("repro") and module is not None:
            for attribute, value in list(vars(module).items()):
                if callable(value):
                    snapshot[(id(module), attribute)] = value
    return snapshot


class TestTracer:
    def test_traced_run_restores_every_wrapped_attribute(self, tmp_path):
        workload = workloads.make_workload("hcas-sweep", 1, str(tmp_path))
        model = workload.setup()
        before = _attributes()
        tracer = Tracer(workloads.Observations().observers())
        traced = workload.run(model, 0.0, tracer=tracer)
        assert _attributes() == before
        names = {span[2] for span in tracer.spans}
        assert {"craft.phase1", "craft.phase2", "chz.affine", "solvers.solve_fixpoint_batch"} <= names
        assert traced.tally.failed == 0
        untraced = workload.run(model, 0.0)
        compared, differing = workloads.flips(untraced.tally, traced.tally)
        assert compared > 0 and differing == 0

    def test_wrappers_are_removed_when_the_traced_code_raises(self):
        before = _attributes()
        with pytest.raises(RuntimeError):
            with Tracer():
                assert _attributes() != before
                raise RuntimeError("boom")
        assert _attributes() == before

    def test_self_time_subtracts_children(self):
        tracer = Tracer()
        tracer.spans.extend(
            [
                (1, 0, "outer", 0, 10_000_000_000),
                (2, 1, "inner", 1_000_000_000, 4_000_000_000),
                (3, 1, "outer", 5_000_000_000, 6_000_000_000),
                # Outlives its recorded parent (an asyncio task): a root.
                (4, 1, "late", 9_000_000_000, 12_000_000_000),
            ]
        )
        summary = tracer.summary()
        assert summary["outer"]["seconds"] == pytest.approx(10.0)
        assert summary["outer"]["self_seconds"] == pytest.approx(6.0 + 1.0)
        assert summary["inner"]["self_seconds"] == pytest.approx(3.0)
        assert summary["late"]["seconds"] == pytest.approx(3.0)


class _FailingBackend:
    def certify(self, *args, **kwargs):
        raise RuntimeError("injected backend failure")

    def close(self):
        pass


class TestFailureAccounting:
    def test_failing_sweep_backend_raises_failed_share(self, tmp_path):
        calls = []

        def certify(model, xs, labels, config):
            calls.append(1)
            if len(calls) > 1:  # the warm-up pass succeeds, the timed ones fail
                raise RuntimeError("injected backend failure")
            return workloads.certify_batched(model, xs, labels, config)

        workload = workloads.BatchedWorkload(
            "hcas-sweep", "HCAS-FCx100", inputs.hcas_regions, 1, certify=certify
        )
        result, _lines = run.measure(workload, 0.0, False, 1, setup_repeats=1)
        assert result["failed"] / result["attempted"] > 0
        assert result["correct"] is False

    def test_failing_service_backend_raises_failed_share(self, tmp_path):
        workload = workloads.ServiceWorkload(1, str(tmp_path), backend=lambda model, cache_dir: _FailingBackend())
        result, _lines = run.measure(workload, 0.0, False, 1, setup_repeats=1)
        assert result["failed"] == result["attempted"] > 0
        assert result["correct"] is False


def test_benchmark_json_matches_the_metrics_the_runner_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [workload["name"] for workload in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [metric["name"] for metric in spec["per_layer"]] == [name for name, _unit in workloads.PER_LAYER]
    assert [metric["unit"] for metric in spec["per_layer"]] == [unit for _name, unit in workloads.PER_LAYER]
    fake = workloads.Run(
        latencies=[1.0], regions_per_s=1.0, certified=1, tally=workloads.Tally(), queries=[]
    )
    produced = run.end_to_end([1.0], fake)
    assert [metric["name"] for metric in spec["end_to_end"]] == list(produced)
    assert [metric["unit"] for metric in spec["end_to_end"]] == [unit for _value, unit in produced.values()]
