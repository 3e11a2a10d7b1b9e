#!/usr/bin/env python
"""Per-region verdicts of a perfbench workload, dumped and compared across checkouts.

A change that should not move verdicts (a faster phase two, a new
kernel) is checked by dumping the same seeded regions on both checkouts
and comparing the dumps:

    python3 scripts/verdict_flips.py dump --workload fcx40-tighten --seed 77 \\
        --draws 20 --out change.json
    python3 scripts/verdict_flips.py dump --root ../parent --workload fcx40-tighten \\
        --seed 77 --draws 20 --out parent.json
    python3 scripts/verdict_flips.py compare parent.json change.json

A change meant to keep results bit for bit adds ``--exact`` to ``compare``.

``dump`` certifies draws ``1..N`` of the workload's seeded regions (the
draws a ``perfbench/run.py`` run times; it reads only
``perfbench/inputs.py``), or one of two corpora fixed by a rule stated in
advance, for which ``--seed`` and ``--draws`` do not apply:

* ``hard-row``: the sharding row of ``benchmarks/bench_sharded_engine.py``,
  the small HCAS model's test points repeated to 256 cells with their
  dataset labels, at an unclipped epsilon of 2.0, under
  ``CraftConfig(slope_optimization="none")``;
* ``random-mondeq``: six ``MonDEQ.random(input_dim=5, latent_dim=16,
  output_dim=4, monotonicity=4.0, seed=s)`` for s = 0..5, each at 100
  centres drawn by ``np.random.default_rng(100 + s).uniform(0, 1, (100,
  5))`` and labelled with the model's own prediction, at epsilon 0.02 and
  0.08 clipped to [0, 1], under ``CraftConfig()``.

It runs them through the batched engine with the workload's
``CraftConfig`` (``CraftConfig()`` for the perfbench workloads), or with
``CraftConfig.ablation(NAME)`` under ``--ablation NAME``.  With
``--oracle`` each region's record is the exhaustive alpha search's
instead (:func:`exhaustive_search`), so a race or stop-rule change can be
compared with it, not only with its parent.  ``dump`` writes each
region's certified flag, margin,
selected alpha, phase-one and phase-two iteration counts, peak error
terms, and two digests: one of its fixpoint abstraction's element (the
bytes of its centre, generators and Box; an element without a Box is
digested as if its Box were zero, and a Box-domain element by its
bounds) and one of both width traces.  Dumping the same ablation name on
two checkouts compares its two spellings: a row that a change respells
(for example ``no_box_component``) must still dump the same regions.
``--root`` names the checkout whose ``src/`` and ``perfbench/inputs.py``
run (default: this one), so a checkout without this script can still be
dumped.  ``compare`` reports certified -> uncertified flips from the
first dump to the second, gained certificates, moved alphas, the regions
whose iteration counts or peak error terms moved (``moved_counts``), the
regions whose element or width traces moved (``moved_elements``), and
the largest margin difference, and exits non-zero only on a flip.  With
``--exact`` it also exits non-zero when anything else moved: a gained
certificate, an alpha, counts, elements or a margin.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

#: Per-region work counts a change that keeps results bit for bit must not move.
COUNTS = ("iterations_phase1", "iterations_phase2", "peak_error_terms")

#: Per-region digests of the fixpoint abstraction a bit-for-bit change must not move.
DIGESTS = ("element_digest", "trace_digest")

#: Workload name -> (smoke model, region function in perfbench/inputs.py).
WORKLOADS = {
    "fcx40-tighten": ("FCx40", "fcx40_regions"),
    "hcas-sweep": ("HCAS-FCx100", "hcas_regions"),
}

#: Sizes of the fixed corpora (see the module docstring).
HARD_ROW_CELLS = 256
RANDOM_MODELS = 6
RANDOM_CENTRES = 100
RANDOM_EPSILONS = (0.02, 0.08)

#: The exhaustive search's probe budget: every grid alpha runs this many steps.
EXHAUSTIVE_PROBE_STEPS = 30


def _finite(value):
    return value if value is not None and math.isfinite(value) else None


def _digest(*arrays) -> str:
    """Digest of the shapes and float64 bytes of ``arrays``."""
    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        array = np.ascontiguousarray(array, dtype=float)
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _element_digest(element) -> str:
    """Digest of a fixpoint element: Box-domain elements by their bounds, the
    zonotope family by centre, generators and Box (zero when it has none)."""
    if not hasattr(element, "generators"):
        return _digest(*element.concretize_bounds())
    box = getattr(element, "box", np.zeros(element.dim))
    return _digest(element.center, element.generators, box)


def _digests(result) -> dict:
    """The element and width-trace digests of ``result``'s fixpoint abstraction."""
    abstraction = result.fixpoint_abstraction
    if abstraction is None:
        return dict.fromkeys(DIGESTS)
    return {
        "element_digest": _element_digest(abstraction.element),
        "trace_digest": _digest(abstraction.width_trace_phase1, abstraction.width_trace_phase2),
    }


def _perfbench_draws(workload: str, seed: int, draws: int):
    """``(draw, model, xs, labels, epsilon, clip)`` of the workload's draws ``1..draws``."""
    from perfbench import inputs
    from repro.experiments import model_zoo

    model_name, regions_name = WORKLOADS[workload]
    model, dataset = model_zoo.get_model(model_name, "smoke")
    regions = getattr(inputs, regions_name)
    for draw in range(1, draws + 1):
        xs, labels = regions(dataset.x_test, dataset.y_test, seed, draw)
        yield draw, model, xs, labels, inputs.EPSILON, (0.0, 1.0)


def _hard_row():
    from repro.experiments import model_zoo

    model, dataset = model_zoo.get_model("HCAS-FCx100", "small")
    repeats = HARD_ROW_CELLS // len(dataset.x_test) + 1
    xs = np.vstack([dataset.x_test] * repeats)[:HARD_ROW_CELLS]
    labels = np.concatenate([dataset.y_test] * repeats)[:HARD_ROW_CELLS].astype(int)
    yield "hcas-small eps 2.0", model, xs, labels, 2.0, (None, None)


def _random_mondeq():
    from repro.mondeq.model import MonDEQ

    for seed in range(RANDOM_MODELS):
        model = MonDEQ.random(
            input_dim=5, latent_dim=16, output_dim=4, monotonicity=4.0, seed=seed
        )
        xs = np.random.default_rng(100 + seed).uniform(0.0, 1.0, (RANDOM_CENTRES, 5))
        labels = model.predict_batch(xs)
        for epsilon in RANDOM_EPSILONS:
            yield f"seed {seed} eps {epsilon}", model, xs, labels, epsilon, (0.0, 1.0)


#: Corpus name -> (its ``CraftConfig`` keywords, its region groups).
CORPORA = {
    "hard-row": (dict(slope_optimization="none"), _hard_row),
    "random-mondeq": ({}, _random_mondeq),
}


def exhaustive_search(certify, config, count: int) -> list:
    """The exhaustive alpha search of ``tests/core/test_alpha_race.py``, batched.

    ``certify(config, rows)`` returns the results of the regions ``rows``
    (of ``count``) under ``config``.  With the phase-two stop rule off,
    every grid alpha runs ``EXHAUSTIVE_PROBE_STEPS`` steps on every region;
    each contained, uncertified region's best alpha (the first on ties) is
    then restarted at the full budget, and the region keeps the better
    record.
    """
    never_stop = lambda self, step, margin, earlier_margin: False  # noqa: E731
    alphas = config.alpha2_grid if config.solver2 == "fb" else config.alpha2_grid[:1]
    everything = np.arange(count)
    with mock.patch.object(type(config), "stop_tightening", never_stop):
        probes = [
            certify(
                replace(config, alpha2_grid=(alpha,), tighten_max_iterations=EXHAUSTIVE_PROBE_STEPS),
                everything,
            )
            for alpha in alphas
        ]
        best = [max(results, key=lambda result: result.margin) for results in zip(*probes)]
        restarts = {}
        for index, result in enumerate(best):
            if result.contained and not result.certified:
                restarts.setdefault(result.selected_alpha2, []).append(index)
        for alpha, rows in restarts.items():
            full = certify(replace(config, alpha2_grid=(alpha,)), np.asarray(rows))
            for index, result in zip(rows, full):
                if not result.margin < best[index].margin:
                    best[index] = result
    return best


def dump(root: Path, workload: str, seed=None, draws=20, ablation=None, oracle=False) -> dict:
    sys.path[:0] = [str(root / "src"), str(root)]
    from repro.core.config import CraftConfig
    from repro.verify.robustness import certify_local_robustness

    if workload in CORPORA:
        settings, corpus = CORPORA[workload]
        config, groups, seed, draws = CraftConfig(**settings), corpus(), None, None
    else:
        config, groups = CraftConfig(), _perfbench_draws(workload, seed, draws)
    if ablation is not None:
        config = CraftConfig.ablation(ablation)
    rows = []
    for draw, model, xs, labels, epsilon, (clip_min, clip_max) in groups:

        def certify(config, picked):
            return certify_local_robustness(
                model, xs[picked], labels[picked], epsilon, config, engine="batched",
                clip_min=clip_min, clip_max=clip_max,
            )

        if oracle:
            results = exhaustive_search(certify, config, len(labels))
        else:
            results = certify(config, np.arange(len(labels)))
        for index, result in enumerate(results):
            rows.append({
                "draw": draw,
                "index": index,
                "certified": bool(result.certified),
                "margin": _finite(result.margin),
                "alpha": result.selected_alpha2,
                **{name: getattr(result, name) for name in COUNTS},
                **_digests(result),
            })
    return {
        "workload": workload, "ablation": ablation, "oracle": oracle, "seed": seed,
        "draws": draws, "regions": rows,
    }


def compare(first: dict, second: dict) -> dict:
    """Differences from ``first`` to ``second`` over the regions both hold."""
    if first.get("ablation") != second.get("ablation"):
        raise ValueError("the dumps ran different configurations")
    before = {(row["draw"], row["index"]): row for row in first["regions"]}
    after = {(row["draw"], row["index"]): row for row in second["regions"]}
    if before.keys() != after.keys():
        raise ValueError("the dumps cover different regions")
    lost, gained, moved_alpha, moved_counts, moved_elements = [], [], [], [], []
    margin_delta = 0.0
    for key in sorted(before):
        a, b = before[key], after[key]
        if a["certified"] and not b["certified"]:
            lost.append(key)
        elif b["certified"] and not a["certified"]:
            gained.append(key)
        if a["alpha"] != b["alpha"]:
            moved_alpha.append(key)
        if any(a.get(name) != b.get(name) for name in COUNTS):
            moved_counts.append(key)
        if any(a.get(name) != b.get(name) for name in DIGESTS):
            moved_elements.append(key)
        if a["margin"] is not None and b["margin"] is not None:
            margin_delta = max(margin_delta, abs(a["margin"] - b["margin"]))
    return {
        "regions": len(before),
        "certified": [sum(row["certified"] for row in rows.values()) for rows in (before, after)],
        "lost": lost,
        "gained": gained,
        "moved_alpha": len(moved_alpha),
        "moved_counts": len(moved_counts),
        "moved_elements": len(moved_elements),
        "max_margin_delta": margin_delta,
    }


def moved(report: dict) -> bool:
    """Whether ``report`` shows a move other than a lost certificate."""
    return bool(
        report["gained"]
        or report["moved_alpha"]
        or report["moved_counts"]
        or report["moved_elements"]
        or report["max_margin_delta"]
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)
    dumping = commands.add_parser("dump", help="write the verdicts of N draws")
    dumping.add_argument("--workload", choices=sorted(WORKLOADS) + sorted(CORPORA), required=True)
    dumping.add_argument("--seed", type=int, help="the perfbench workloads' seed (required for them)")
    dumping.add_argument("--draws", type=int, help="perfbench draws (default 20)")
    dumping.add_argument(
        "--ablation", metavar="NAME",
        help="dump under CraftConfig.ablation(NAME) instead of the workload's configuration",
    )
    dumping.add_argument(
        "--oracle", action="store_true",
        help="dump the exhaustive alpha search's records instead of the race's",
    )
    dumping.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    dumping.add_argument("--out", type=Path, required=True)
    comparing = commands.add_parser("compare", help="exit non-zero on a certified -> uncertified flip")
    comparing.add_argument("first", type=Path)
    comparing.add_argument("second", type=Path)
    comparing.add_argument(
        "--exact", action="store_true",
        help="also exit non-zero on a gained certificate, a moved alpha, counts, elements or margin",
    )
    args = parser.parse_args(argv)

    if args.command == "dump":
        if args.workload in CORPORA and (args.seed is not None or args.draws is not None):
            parser.error(f"--seed and --draws do not apply to the corpus {args.workload}")
        if args.workload in WORKLOADS and args.seed is None:
            parser.error(f"--seed is required for the workload {args.workload}")
        result = dump(
            args.root.resolve(), args.workload, args.seed,
            20 if args.draws is None else args.draws, args.ablation, args.oracle,
        )
        args.out.write_text(json.dumps(result))
        certified = sum(row["certified"] for row in result["regions"])
        print(f"{len(result['regions'])} regions, {certified} certified -> {args.out}")
        return 0
    report = compare(json.loads(args.first.read_text()), json.loads(args.second.read_text()))
    print(json.dumps(report))
    return 1 if report["lost"] or (args.exact and moved(report)) else 0


if __name__ == "__main__":
    sys.exit(main())
