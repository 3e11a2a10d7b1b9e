"""The cross-checkout verdict comparison (``scripts/verdict_flips.py compare``)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "verdict_flips.py"
_spec = importlib.util.spec_from_file_location("verdict_flips", _SCRIPT)
flips = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(flips)


def _dump(*regions):
    return {
        "workload": "fcx40-tighten",
        "seed": 1,
        "draws": 1,
        "regions": [
            {"draw": 1, "index": index, "certified": certified, "margin": margin, "alpha": alpha}
            for index, (certified, margin, alpha) in enumerate(regions)
        ],
    }


def test_identical_dumps_compare_clean():
    dump = _dump((True, 0.1, 0.05), (False, -0.2, 0.05), (False, None, None))
    report = flips.compare(dump, dump)
    assert report["lost"] == [] and report["gained"] == []
    assert report["certified"] == [1, 1]
    assert report["moved_alpha"] == 0 and report["max_margin_delta"] == 0.0


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


def test_dumps_of_different_regions_do_not_compare():
    with pytest.raises(ValueError):
        flips.compare(_dump((True, 0.1, 0.05)), _dump((True, 0.1, 0.05), (True, 0.1, 0.05)))
