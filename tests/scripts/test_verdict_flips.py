"""The cross-checkout verdict comparison (``scripts/verdict_flips.py compare``)."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "verdict_flips.py"
_spec = importlib.util.spec_from_file_location("verdict_flips", _SCRIPT)
flips = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flips)


def _dump(*regions, counts=(3, 2, 40), digests=("e0", "t0")):
    return {
        "workload": "fcx40-tighten",
        "seed": 1,
        "draws": 1,
        "regions": [
            {
                "draw": 1, "index": index, "certified": certified, "margin": margin, "alpha": alpha,
                **dict(zip(flips.COUNTS, counts)),
                **dict(zip(flips.DIGESTS, digests)),
            }
            for index, (certified, margin, alpha) in enumerate(regions)
        ],
    }


def test_identical_dumps_compare_clean():
    dump = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), (False, None, None))
    report = flips.compare(dump, dump)
    assert report["lost"] == [] and report["gained"] == []
    assert report["certified"] == [1, 1]
    assert report["moved_alpha"] == 0 and report["max_margin_delta"] == 0.0
    assert report["moved_counts"] == 0
    assert report["moved_elements"] == 0


def test_lost_and_gained_certificates_are_told_apart():
    before = _dump((True, 0.1, 0.05), (False, -0.2, 0.05))
    after = _dump((False, -0.1, 0.1), (True, 0.3, 0.05))
    report = flips.compare(before, after)
    assert report["lost"] == [(1, 0)]
    assert report["gained"] == [(1, 1)]
    assert report["moved_alpha"] == 1
    assert report["max_margin_delta"] == pytest.approx(0.5)


def test_main_exits_non_zero_only_on_a_lost_certificate(tmp_path):
    paths = {}
    for name, dump in (
        ("before", _dump((True, 0.1, 0.05), (False, -0.2, 0.05))),
        ("gained", _dump((True, 0.1, 0.05), (True, 0.2, 0.05))),
        ("lost", _dump((False, -0.1, 0.05), (False, -0.2, 0.05))),
    ):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(dump))
    assert flips.main(["compare", str(paths["before"]), str(paths["gained"])]) == 0
    assert flips.main(["compare", str(paths["before"]), str(paths["lost"])]) == 1


_MOVES = {
    "gained": dict(regions=((True, 0.1, 0.05), (True, 0.2, 0.05))),
    "alpha": dict(regions=((True, 0.1, 0.05), (False, -0.2, 0.1))),
    "counts": dict(counts=(3, 2, 41)),
    "elements": dict(digests=("e0", "t1")),
    "margin": dict(regions=((True, 0.1, 0.05), (False, -0.2 + 1e-16, 0.05))),
}


@pytest.mark.parametrize("move", list(_MOVES))
def test_exact_exits_non_zero_on_any_move(move, tmp_path):
    regions = ((True, 0.1, 0.05), (False, -0.2, 0.05))
    before = _dump(*regions)
    moves = dict(_MOVES[move])
    after = _dump(*moves.pop("regions", regions), **moves)
    report = flips.compare(before, after)
    assert report["lost"] == [] and flips.moved(report)
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, dump in zip(paths, (before, after)):
        path.write_text(json.dumps(dump))
    assert flips.main(["compare", *map(str, paths)]) == 0
    assert flips.main(["compare", "--exact", *map(str, paths)]) == 1
    # Without a move, --exact passes; a lost certificate fails either way.
    assert flips.main(["compare", "--exact", str(paths[0]), str(paths[0])]) == 0
    lost = tmp_path / "lost.json"
    lost.write_text(json.dumps(_dump((False, 0.1, 0.05), (False, -0.2, 0.05))))
    assert flips.main(["compare", "--exact", str(paths[0]), str(lost)]) == 1


def test_dumps_of_different_regions_do_not_compare():
    with pytest.raises(ValueError):
        flips.compare(_dump((True, 0.1, 0.05)), _dump((True, 0.1, 0.05), (True, 0.1, 0.05)))


@pytest.mark.parametrize("moved", range(3))
def test_moved_iteration_counts_and_peak_terms_are_counted(moved, tmp_path):
    counts = [3, 2, 40]
    before = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), counts=counts)
    counts[moved] += 1
    after = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), counts=counts)
    report = flips.compare(before, after)
    assert report["moved_counts"] == 2
    assert report["lost"] == [] and report["gained"] == [] and report["moved_alpha"] == 0
    paths = [tmp_path / "before.json", tmp_path / "after.json"]
    for path, dump in zip(paths, (before, after)):
        path.write_text(json.dumps(dump))
    assert flips.main(["compare", *map(str, paths)]) == 0


@pytest.mark.parametrize("moved", range(2))
def test_moved_elements_and_width_traces_are_counted(moved):
    digests = ["e0", "t0"]
    before = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), digests=digests)
    digests[moved] = "moved"
    after = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), digests=digests)
    report = flips.compare(before, after)
    assert report["moved_elements"] == 2
    assert report["moved_counts"] == 0 and report["max_margin_delta"] == 0.0


def test_dump_records_the_counts(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = Path(__file__).resolve().parents[2]
    result = flips.dump(root, "fcx40-tighten", seed=3, draws=1)
    row = result["regions"][0]
    assert set(flips.COUNTS) <= row.keys()
    assert all(isinstance(row[name], int) for name in flips.COUNTS if row[name] is not None)
    # Every region of the draw reaches the abstract analysis and gets digests;
    # a second dump of the same draw reproduces them.
    assert all(len(row[name]) == 32 for row in result["regions"] for name in flips.DIGESTS)
    again = flips.dump(root, "fcx40-tighten", seed=3, draws=1)
    assert flips.compare(result, again)["moved_elements"] == 0


def test_an_element_without_a_box_digests_as_a_zero_box():
    """The Zonotope pipeline's elements digest like CH-Zonotopes with a zero
    Box, so a respelled "No Box component" row compares bit for bit."""
    from repro.domains.chzonotope import CHZonotope
    from repro.domains.interval import Interval
    from repro.domains.zonotope import Zonotope

    center, generators = np.array([0.5, -1.0]), np.array([[1.0, 0.0, 0.5], [0.0, 2.0, 0.25]])
    zonotope = Zonotope(center, generators)
    assert flips._element_digest(zonotope) == flips._element_digest(
        CHZonotope(center, generators, np.zeros(2))
    )
    assert flips._element_digest(zonotope) != flips._element_digest(
        CHZonotope(center, generators, np.full(2, 1e-3))
    )
    box = Interval([0.0, -1.0], [1.0, 1.0])
    assert flips._element_digest(box) == flips._digest(*box.concretize_bounds())
    assert flips._element_digest(box) != flips._element_digest(Interval([0.0, -1.0], [1.0, 2.0]))


def test_dumps_of_different_configurations_do_not_compare():
    dump = _dump((True, 0.1, 0.05))
    with pytest.raises(ValueError):
        flips.compare(dump, {**dump, "ablation": "no_box_component"})


def test_dump_runs_an_ablation(monkeypatch):
    """``--ablation`` dumps under ``CraftConfig.ablation(NAME)``: the Box
    row's elements are digested by their bounds."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    root = Path(__file__).resolve().parents[2]
    result = flips.dump(root, "fcx40-tighten", seed=3, draws=1, ablation="no_zono_component")
    assert result["ablation"] == "no_zono_component"
    assert all(len(row[name]) == 32 for row in result["regions"] for name in flips.DIGESTS)


def _small_corpora(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(flips, "HARD_ROW_CELLS", 6)
    monkeypatch.setattr(flips, "RANDOM_MODELS", 1)
    monkeypatch.setattr(flips, "RANDOM_CENTRES", 4)
    return Path(__file__).resolve().parents[2]


def test_the_random_corpus_is_fixed(monkeypatch):
    """``random-mondeq`` is fixed by its rule: two dumps are identical, and
    every region is labelled with the model's prediction, so every one
    reaches the analysis."""
    root = _small_corpora(monkeypatch)
    result = flips.dump(root, "random-mondeq")
    assert result["seed"] is None and result["draws"] is None
    assert [(row["draw"], row["index"]) for row in result["regions"]] == [
        (f"seed 0 eps {epsilon}", index) for epsilon in flips.RANDOM_EPSILONS for index in range(4)
    ]
    assert all(row["iterations_phase1"] > 0 for row in result["regions"])
    assert not flips.moved(flips.compare(result, flips.dump(root, "random-mondeq")))


def test_the_hard_row_keeps_the_dataset_labels(monkeypatch):
    """The hard row is the sharding benchmark's sweep, dataset labels
    included: misclassified cells dump without an abstraction."""
    root = _small_corpora(monkeypatch)
    result = flips.dump(root, "hard-row")
    assert [row["index"] for row in result["regions"]] == list(range(6))
    analysed = [row for row in result["regions"] if row["iterations_phase1"]]
    assert analysed
    assert all(len(row[name]) == 32 for row in analysed for name in flips.DIGESTS)


@pytest.mark.parametrize(
    "argv",
    [
        ["--workload", "hard-row", "--seed", "1"],
        ["--workload", "random-mondeq", "--draws", "2"],
        ["--workload", "fcx40-tighten"],
    ],
)
def test_seed_and_draws_apply_to_the_perfbench_workloads_only(argv, tmp_path):
    with pytest.raises(SystemExit):
        flips.main(["dump", *argv, "--out", str(tmp_path / "dump.json")])
    assert not (tmp_path / "dump.json").exists()


def test_the_oracle_restarts_each_best_alpha():
    """``exhaustive_search`` probes every alpha on every region with the
    stop rule off, restarts each contained, uncertified region's best alpha
    (the first on ties) at the full budget, and keeps the better record."""
    from types import SimpleNamespace

    from repro.core.config import CraftConfig

    probe_margins = {  # per alpha, the probe margins of regions 0..3
        0.1: [-1.0, -0.3, -np.inf, -0.5],
        0.2: [-0.5, -0.2, -np.inf, -0.7],
        0.3: [-0.5, 0.1, -np.inf, -0.9],
    }
    restart_margins = {0.2: [-0.4], 0.1: [-0.6]}
    calls = []

    def certify(config, rows):
        assert config.stop_tightening(149, -1.0, -1.0) is False
        (alpha,) = config.alpha2_grid
        calls.append((alpha, config.tighten_max_iterations, rows.tolist()))
        if config.tighten_max_iterations == flips.EXHAUSTIVE_PROBE_STEPS:
            margins = probe_margins[alpha]
        else:
            margins = restart_margins[alpha]
        return [
            SimpleNamespace(
                margin=margin, certified=margin > 0, contained=margin > -np.inf,
                selected_alpha2=alpha, budget=config.tighten_max_iterations,
            )
            for margin in margins
        ]

    config = CraftConfig(alpha2_grid=(0.1, 0.2, 0.3))
    best = flips.exhaustive_search(certify, config, 4)
    assert calls == [
        (0.1, 30, [0, 1, 2, 3]), (0.2, 30, [0, 1, 2, 3]), (0.3, 30, [0, 1, 2, 3]),
        (0.2, 150, [0]), (0.1, 150, [3]),
    ]
    assert [(r.selected_alpha2, r.margin, r.budget) for r in best] == [
        (0.2, -0.4, 150),  # 0.2 and 0.3 tie; the restart beats the probe
        (0.3, 0.1, 30),  # certified in a probe: no restart
        (0.1, -np.inf, 30),  # not contained: no restart
        (0.1, -0.5, 30),  # the restart is worse: the probe stays
    ]
    assert config.stop_tightening(149, -1.0, -1.0)


def test_an_oracle_dump_compares_with_a_race_dump(monkeypatch, tmp_path):
    root = _small_corpora(monkeypatch)
    oracle = flips.dump(root, "random-mondeq", oracle=True)
    assert oracle["oracle"] is True
    race = flips.dump(root, "random-mondeq")
    report = flips.compare(oracle, race)
    assert report["regions"] == 8
    for row in oracle["regions"]:
        if row["iterations_phase1"] and not row["certified"] and row["margin"] is not None:
            assert row["iterations_phase2"] in (flips.EXHAUSTIVE_PROBE_STEPS, 150)
