"""A batched sweep's regions stay arrays from ``certify`` to the results.

* **Bounds.**  :func:`~repro.verify.specs.ball_bounds` on a ``(B, d)``
  stack equals the stacked per-ball ``LinfBall.bounds`` and
  ``RegionQuery.bounds``, and the clipping rule written out per ball,
  byte for byte.
* **Paths.**  ``certify`` on both batched verifiers equals what they did
  before the array entry existed: a prediction pass, then
  ``certify_regions`` over one ball and one spec per correctly classified
  row.  Every result field is compared, elements and width traces by
  their bytes.  Each result carries its own row: its traces are as long
  as its iteration counts, and its element's width is in its traces.
* **Traces.**  ``_scatter_traces`` equals the per-entry loop it replaced.
* **Counts.**  A 512-region sweep builds no ball, reads no ball's bounds
  and builds specs only for the verifier's postcondition table.
* **Validation.**  Bad ball parameters, NaN included, fail loudly on every
  engine, under the same conditions as before.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import ContractionSettings, CraftConfig
from repro.core.results import VerificationOutcome
from repro.engine import ShardedScheduler
from repro.engine.cache import RegionQuery
from repro.engine.craft import BatchedCraft, _scatter_traces, prediction_pass
from repro.engine.escalation import EscalationLadder
from repro.exceptions import VerificationError
from repro.experiments.model_zoo import get_model
from repro.mondeq.model import MonDEQ
from repro.verify.robustness import certify_local_robustness, certify_sample
from repro.verify.specs import ClassificationSpec, LinfBall, ball_bounds

# ---------------------------------------------------------------------------
# Bounds
# ---------------------------------------------------------------------------

_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)
_BOUNDS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1.0]), st.floats(-1.0, 2.0))


@st.composite
def _stacks_and_balls(draw):
    batch = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 4))
    centers = draw(arrays(np.float64, (batch, dim), elements=_ENTRIES))
    epsilon = draw(st.one_of(st.sampled_from([0.0, np.inf]), st.floats(0.0, 2.0)))
    clip_min, clip_max = draw(_BOUNDS), draw(_BOUNDS)
    if clip_min is not None and clip_max is not None and clip_min > clip_max:
        clip_min, clip_max = clip_max, clip_min
    return centers, epsilon, clip_min, clip_max


def _clipped(center, epsilon, clip_min, clip_max):
    """The clipping rule, written out for one ball."""
    lower, upper = center - epsilon, center + epsilon
    if clip_min is not None:
        lower, upper = np.maximum(lower, clip_min), np.maximum(upper, clip_min)
    if clip_max is not None:
        lower, upper = np.minimum(lower, clip_max), np.minimum(upper, clip_max)
    return lower, upper


@settings(max_examples=200, deadline=None)
@given(_stacks_and_balls())
def test_stacked_bounds_equal_the_per_ball_bounds(case):
    centers, epsilon, clip_min, clip_max = case
    lower, upper = ball_bounds(centers, epsilon, clip_min, clip_max)
    for per_ball in (
        lambda center: LinfBall(center, epsilon, clip_min, clip_max).bounds(),
        lambda center: RegionQuery(center, epsilon, 0, clip_min, clip_max).bounds(),
        lambda center: _clipped(center, epsilon, clip_min, clip_max),
    ):
        bounds = [per_ball(center) for center in centers]
        assert np.stack([low for low, _ in bounds]).tobytes() == lower.tobytes()
        assert np.stack([up for _, up in bounds]).tobytes() == upper.tobytes()


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------


def _digest(element):
    if element is None:
        return None
    names = ("center", "generators", "box", "lower", "upper")
    return tuple(
        (name, np.shape(value), np.asarray(value, dtype=float).tobytes())
        for name in names
        if (value := getattr(element, name, None)) is not None
    )


def _fields(result):
    """Every field of a result but its time, elements and traces by bytes."""
    if result is None:
        return None
    abstraction = result.fixpoint_abstraction
    return (
        result.outcome,
        result.contained,
        result.certified,
        np.float64(result.margin).tobytes(),
        result.iterations_phase1,
        result.iterations_phase2,
        result.selected_alpha2,
        result.selected_solver2,
        result.slope_optimized,
        result.stage,
        result.peak_error_terms,
        result.notes,
        None if abstraction is None else (
            abstraction.contained,
            abstraction.iterations_phase1,
            abstraction.iterations_phase2,
            np.asarray(abstraction.width_trace_phase1, dtype=float).tobytes(),
            np.asarray(abstraction.width_trace_phase2, dtype=float).tobytes(),
            _digest(abstraction.element),
        ),
        _digest(result.output_element),
    )


def _through_regions(verifier, model, config, xs, labels, epsilon):
    """``certify`` as both verifiers ran it before the array entry: one ball
    and one spec per correctly classified row onto ``certify_regions``."""
    results, queued, anchors = prediction_pass(model, config, xs, labels)
    balls = [LinfBall(center=xs[i], epsilon=epsilon) for i in queued]
    specs = [ClassificationSpec(int(labels[i]), model.output_dim) for i in queued]
    for index, result in zip(queued, verifier.certify_regions(balls, specs, anchors)):
        results[index] = result
    return results


@pytest.fixture(scope="module")
def hcas():
    model, dataset = get_model("HCAS-FCx100", "smoke")
    rng = np.random.default_rng(11)
    rows = rng.integers(0, dataset.x_test.shape[0], size=48)
    xs = np.clip(dataset.x_test[rows] + rng.uniform(-0.02, 0.02, (48, 3)), 0.0, 1.0)
    labels = dataset.y_test[rows].astype(int)
    labels[:4] = (labels[:4] + 1) % model.output_dim  # misclassified rows
    return model, xs, labels, 0.05


def _random_problem(monotonicity, seed, epsilon):
    model = MonDEQ.random(input_dim=5, latent_dim=6, output_dim=3, monotonicity=monotonicity, seed=seed)
    xs = np.random.default_rng(4).uniform(0.0, 1.0, (24, 5))
    labels = np.array([model.predict(x) for x in xs])
    labels[::5] = (labels[::5] + 1) % model.output_dim
    return model, xs, labels, epsilon


@pytest.fixture(scope="module")
def random_model():
    """Verified and unknown rows; the ladder resolves some in each stage."""
    return _random_problem(8.0, 3, 0.1)


@pytest.fixture(scope="module")
def weak_random_model():
    """A weakly monotone model: rows diverge or find no containment."""
    return _random_problem(0.5, 5, 0.3)


_CONFIGS = {
    "default": CraftConfig(),
    "escalation": CraftConfig.escalation(),
    # Not the prediction pass's solver parameters: anchors are solved from the centres.
    "anchors-from-centres": CraftConfig(alpha1=0.08),
    # Four phase-one iterations: some rows of one batch are contained, some are not.
    "short-phase-one": CraftConfig(contraction=ContractionSettings(max_iterations=4)),
}


@pytest.mark.parametrize("problem", ["hcas", "random_model", "weak_random_model"])
@pytest.mark.parametrize("config", list(_CONFIGS.values()), ids=list(_CONFIGS))
def test_certify_equals_the_regions_path(problem, config, request):
    model, xs, labels, epsilon = request.getfixturevalue(problem)
    verifiers = [EscalationLadder] if config.is_ladder else [BatchedCraft, EscalationLadder]
    for verifier_cls in verifiers:
        arrays_path = verifier_cls(model, config).certify(xs, labels, epsilon)
        regions_path = _through_regions(verifier_cls(model, config), model, config, xs, labels, epsilon)
        assert [_fields(r) for r in arrays_path] == [_fields(r) for r in regions_path]
        outcomes = {result.outcome for result in arrays_path}
        assert VerificationOutcome.MISCLASSIFIED in outcomes and len(outcomes) > 1


@pytest.mark.parametrize("problem", ["random_model", "weak_random_model"])
@pytest.mark.parametrize("config", list(_CONFIGS.values()), ids=list(_CONFIGS))
def test_results_carry_their_own_rows(problem, config, request):
    model, xs, labels, epsilon = request.getfixturevalue(problem)
    results = EscalationLadder(model, config).certify(xs, labels, epsilon)
    for result in results:
        abstraction = result.fixpoint_abstraction
        if result.outcome is VerificationOutcome.MISCLASSIFIED:
            continue
        assert len(abstraction.width_trace_phase1) == result.iterations_phase1
        assert len(abstraction.width_trace_phase2) == result.iterations_phase2
        lower, upper = abstraction.element.concretize_bounds()
        width = np.mean(upper - lower)
        if np.isfinite(width):
            traces = abstraction.width_trace_phase1 + abstraction.width_trace_phase2
            assert np.isclose(traces, width, rtol=1e-9, atol=0.0).any()


def test_certify_regions_converts_onto_certify_boxes(hcas, monkeypatch):
    model, xs, labels, epsilon = hcas
    seen = []
    certify_boxes = BatchedCraft.certify_boxes

    def recording(self, centers, lower, upper, targets, anchor_fixpoints=None):
        seen.append((centers, lower, upper, targets))
        return certify_boxes(self, centers, lower, upper, targets, anchor_fixpoints)

    monkeypatch.setattr(BatchedCraft, "certify_boxes", recording)
    balls = [LinfBall(center=x, epsilon=epsilon, clip_min=None) for x in xs[:6]]
    specs = [ClassificationSpec(int(label), model.output_dim) for label in labels[:6]]
    assert len(BatchedCraft(model).certify_regions(balls, specs)) == 6
    centers, lower, upper, targets = seen[0]
    assert centers.tobytes() == xs[:6].tobytes()
    expected = ball_bounds(xs[:6], epsilon, None, 1.0)
    assert lower.tobytes() == expected[0].tobytes() and upper.tobytes() == expected[1].tobytes()
    assert targets.dtype.kind == "i" and targets.tolist() == labels[:6].tolist()


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


def _scatter_traces_per_entry(log, count):
    traces = [[] for _ in range(count)]
    for samples, values in log:
        for sample, value in zip(samples.tolist(), values.tolist()):
            traces[sample].append(value)
    return traces


@st.composite
def _logs(draw):
    count = draw(st.integers(0, 7))
    entries = []
    if count:
        for _ in range(draw(st.integers(0, 6))):
            samples = draw(st.lists(st.integers(0, count - 1), max_size=count, unique=True))
            values = draw(st.lists(st.floats(width=64), min_size=len(samples), max_size=len(samples)))
            entries.append((np.array(samples, dtype=int), np.array(values, dtype=float)))
    # A count above the largest sample: some samples appear in no entry.
    return entries, count + draw(st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(_logs())
def test_scatter_traces_equals_the_per_entry_loop(case):
    log, count = case
    got = _scatter_traces(log, count)
    want = _scatter_traces_per_entry(log, count)
    assert len(got) == len(want) == count
    for got_trace, want_trace in zip(got, want):
        assert all(type(value) is float for value in got_trace)
        assert np.array(got_trace, dtype=float).tobytes() == np.array(want_trace, dtype=float).tobytes()


def test_scatter_traces_of_an_empty_log():
    assert _scatter_traces([], 3) == [[], [], []]
    assert _scatter_traces([], 0) == []


# ---------------------------------------------------------------------------
# Counts
# ---------------------------------------------------------------------------


@pytest.fixture
def region_objects(monkeypatch):
    """How often the test builds a ball, reads a ball's bounds and builds a spec."""
    counts = {"LinfBall": 0, "LinfBall.bounds": 0, "ClassificationSpec": 0}

    def counting(name, method):
        def wrapper(self, *args, **kwargs):
            counts[name] += 1
            return method(self, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(LinfBall, "__post_init__", counting("LinfBall", LinfBall.__post_init__))
    monkeypatch.setattr(LinfBall, "bounds", counting("LinfBall.bounds", LinfBall.bounds))
    monkeypatch.setattr(
        ClassificationSpec,
        "__post_init__",
        counting("ClassificationSpec", ClassificationSpec.__post_init__),
    )
    return counts


def test_a_batched_sweep_builds_no_ball(region_objects):
    """512 HCAS regions at ε = 0.05 (the seed-1, draw-1 regions of the
    ``hcas-sweep`` benchmark) enter the engine as arrays: specs are built
    only for the verifier's table of postcondition matrices, one per class."""
    model, dataset = get_model("HCAS-FCx100", "smoke")
    rng = np.random.default_rng([1, 2, 1])
    rows = rng.integers(0, dataset.x_test.shape[0], size=512)
    jitter = rng.uniform(-0.02, 0.02, size=(512, dataset.x_test.shape[1]))
    xs = np.clip(dataset.x_test[rows] + jitter, 0.0, 1.0)
    results = certify_local_robustness(
        model, xs, dataset.y_test[rows], 0.05, CraftConfig(), engine="batched"
    )
    assert sum(result.outcome is not VerificationOutcome.MISCLASSIFIED for result in results) > 400
    assert sum(result.certified for result in results) > 400
    assert region_objects == {
        "LinfBall": 0, "LinfBall.bounds": 0, "ClassificationSpec": model.output_dim,
    }
    # The counter sees the conversion certify_regions still makes.
    balls = [LinfBall(center=x, epsilon=0.05) for x in xs[:3]]
    specs = [ClassificationSpec(0, model.output_dim) for _ in range(3)]
    BatchedCraft(model).certify_regions(balls, specs)
    assert region_objects["LinfBall"] == 3 and region_objects["LinfBall.bounds"] == 3


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

_BAD_BALLS = {
    "negative-epsilon": dict(epsilon=-0.1),
    "crossed-clip": dict(epsilon=0.05, clip_min=1.0, clip_max=0.0),
    "nan-epsilon": dict(epsilon=np.nan),
    "nan-clip-min": dict(epsilon=0.05, clip_min=np.nan),
    "nan-clip-max": dict(epsilon=0.05, clip_max=np.nan),
}


@pytest.mark.parametrize("ball", list(_BAD_BALLS), ids=list(_BAD_BALLS))
@pytest.mark.parametrize("verifier_cls", [BatchedCraft, EscalationLadder])
def test_bad_balls_fail_only_when_a_row_is_analysed(hcas, verifier_cls, ball):
    model, xs, labels, _ = hcas
    verifier = verifier_cls(model, CraftConfig())
    with pytest.raises(VerificationError):
        verifier.certify(xs, labels, **_BAD_BALLS[ball])
    # Every row misclassified: no region reaches the abstract analysis.
    _, queued, _ = prediction_pass(model, verifier.config, xs, labels)
    wrong = labels.copy()
    wrong[queued] = (wrong[queued] + 1) % model.output_dim
    results = verifier.certify(xs, wrong, **_BAD_BALLS[ball])
    assert all(result.outcome is VerificationOutcome.MISCLASSIFIED for result in results)


@pytest.mark.parametrize("ball", [name for name in _BAD_BALLS if "nan" in name])
@pytest.mark.parametrize("engine", ["batched", "sequential", "sharded"])
def test_a_nan_ball_fails_loudly_on_every_engine(hcas, engine, ball):
    model, xs, labels, _ = hcas
    with pytest.raises(VerificationError):
        if engine == "sharded":
            with ShardedScheduler(model, CraftConfig(), num_workers=1, start_method="inline") as scheduler:
                scheduler.certify(xs, labels, **_BAD_BALLS[ball])
        else:
            certify_local_robustness(model, xs, labels, config=CraftConfig(), engine=engine, **_BAD_BALLS[ball])
    with pytest.raises(VerificationError):
        LinfBall(center=xs[0], **_BAD_BALLS[ball])


@pytest.mark.parametrize("engine", ["batched", "sequential", "sharded"])
def test_an_infinite_radius_is_the_whole_input_box(hcas, engine):
    """Clipped, ε = +inf is the box [0, 1]^d.  The HCAS smoke model
    predicts one class on all of it, and exactly the rows labelled with
    that class certify."""
    model, xs, labels, _ = hcas
    grid = np.stack(np.meshgrid(*[np.linspace(0.0, 1.0, 5)] * model.input_dim), -1)
    everywhere = {model.predict(x) for x in grid.reshape(-1, model.input_dim)}
    assert len(everywhere) == 1
    if engine == "sharded":
        with ShardedScheduler(model, CraftConfig(), num_workers=1, start_method="inline") as scheduler:
            results = scheduler.certify(xs, labels, np.inf).results
    else:
        results = certify_local_robustness(model, xs, labels, np.inf, CraftConfig(), engine=engine)
    assert [result.certified for result in results] == [label in everywhere for label in labels]


@pytest.mark.parametrize("verifier_cls", [BatchedCraft, EscalationLadder])
def test_certify_regions_keeps_its_checks(hcas, verifier_cls):
    model, xs, labels, epsilon = hcas
    verifier = verifier_cls(model, CraftConfig())
    balls = [LinfBall(center=x, epsilon=epsilon) for x in xs[:3]]
    specs = [ClassificationSpec(int(label), model.output_dim) for label in labels[:3]]
    assert verifier.certify_regions([], []) == []
    with pytest.raises(VerificationError, match="matching lengths"):
        verifier.certify_regions(balls, specs[:2])
    with pytest.raises(VerificationError, match="dimension"):
        verifier.certify_regions(balls[:2] + [LinfBall(center=np.zeros(4), epsilon=epsilon)], specs)
    with pytest.raises(VerificationError, match="classes"):
        verifier.certify_regions(balls, specs[:2] + [ClassificationSpec(0, model.output_dim + 1)])
    # certify checks the input dimension before its prediction pass.
    with pytest.raises(VerificationError, match="dimension"):
        verifier.certify(np.hstack([xs, xs[:, :1]]), labels, epsilon)


@pytest.mark.parametrize("engine", ["sequential", "batched", "ladder", "sharded"])
def test_a_wrong_input_dimension_raises_one_error_on_every_engine(hcas, engine):
    model, xs, labels, epsilon = hcas
    wide = np.hstack([xs, xs[:, :1]])
    message = "precondition dimension 4 does not match the model input dimension 3"
    with pytest.raises(VerificationError, match=message):
        if engine == "sequential":
            certify_sample(model, wide[0], labels[0], epsilon)
        elif engine == "batched":
            BatchedCraft(model, CraftConfig()).certify(wide, labels, epsilon)
        elif engine == "ladder":
            EscalationLadder(model, CraftConfig.escalation()).certify(wide, labels, epsilon)
        else:
            with ShardedScheduler(model, CraftConfig(), num_workers=1, start_method="inline") as scheduler:
                scheduler.certify(wide, labels, epsilon)
    if engine in ("sequential", "batched"):
        with pytest.raises(VerificationError, match=message):
            certify_local_robustness(model, wide, labels, epsilon, engine=engine)
