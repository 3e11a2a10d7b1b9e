"""Local-robustness experiments: Tables 2 and 3, Figs. 12, 13, 17 and 20.

All runners work on the scaled-down model zoo (see
:mod:`repro.experiments.model_zoo` and DESIGN.md for the substitutions) and
return plain dictionaries/lists so the benchmark harness can print the same
rows/series as the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import ContractionSettings, CraftConfig
from repro.core.contraction import ContractionEngine, domain_ops_for
from repro.core.craft import CraftVerifier
from repro.core.expansion import ExpansionSchedule
from repro.domains.zonotope import Zonotope
from repro.experiments.model_zoo import get_model
from repro.mondeq.abstract_solvers import (
    build_initial_state,
    layout_for,
    make_abstract_step,
    make_output_map,
)
from repro.mondeq.attacks import PGDConfig
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import solve_fixpoint
from repro.verify.baselines import LipschitzVerifier, SemiSDPSurrogate
from repro.verify.robustness import RobustnessVerifier, build_fixpoint_problem, certify_sample
from repro.verify.specs import ClassificationSpec, LinfBall

_SAMPLES_BY_SCALE = {"smoke": 4, "small": 20, "full": 60}
_EPSILONS_MNIST = 0.05
_EPSILONS_CIFAR = 2.0 / 255.0


def _default_config() -> CraftConfig:
    return CraftConfig(slope_optimization="reduced")


def _attack_config(scale: str) -> PGDConfig:
    if scale == "smoke":
        return PGDConfig(steps=5, restarts=1)
    if scale == "small":
        return PGDConfig(steps=10, restarts=2)
    return PGDConfig(steps=30, restarts=3, targeted=True)


# ----------------------------------------------------------------------
# Table 2 — local robustness certification across architectures
# ----------------------------------------------------------------------


def run_table2(
    scale: str = "small",
    models: Optional[Sequence[str]] = None,
    config: Optional[CraftConfig] = None,
) -> List[Dict]:
    """Certified accuracy, containment count and runtime per architecture.

    Mirrors Table 2: one row per (dataset, model) pair with the columns
    ``acc`` (#correct), ``bound`` (#PGD-robust), ``cont`` (#contained),
    ``cert`` (#certified) and the mean per-sample time.
    """
    if models is None:
        models = ["FCx40", "FCx87", "FCx100", "ConvSmall-MNIST", "FCx200-CIFAR"]
        if scale == "smoke":
            models = ["FCx40"]
    config = config if config is not None else _default_config()
    rows = []
    for name in models:
        model, dataset = get_model(name, scale)
        epsilon = _EPSILONS_CIFAR if dataset.name == "cifar_like" else _EPSILONS_MNIST
        verifier = RobustnessVerifier(model, config, _attack_config(scale))
        report = verifier.evaluate(
            dataset.x_test, dataset.y_test, epsilon,
            max_samples=_SAMPLES_BY_SCALE[scale],
        )
        row = report.as_row()
        row["dataset"] = dataset.name
        row["latent"] = model.latent_dim
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Table 3 — comparison against the SemiSDP surrogate and Lipschitz bounds
# ----------------------------------------------------------------------


def run_table3(
    scale: str = "small",
    models: Optional[Sequence[str]] = None,
    epsilons: Sequence[float] = (0.01, 0.02, 0.05, 0.07, 0.1),
    config: Optional[CraftConfig] = None,
) -> List[Dict]:
    """Craft vs the SemiSDP surrogate (and the global-Lipschitz baseline).

    One row per (model, epsilon) with certified counts and mean runtimes for
    each verifier; the SemiSDP column uses the calibrated surrogate
    documented in DESIGN.md (its ``#Cert.`` is computed, its runtime is the
    published scaling model).
    """
    if models is None:
        models = ["FCx40", "FCx87"] if scale != "smoke" else ["FCx40"]
    config = config if config is not None else _default_config()
    num_samples = _SAMPLES_BY_SCALE[scale]
    rows = []
    for name in models:
        model, dataset = get_model(name, scale)
        surrogate = SemiSDPSurrogate(model)
        lipschitz = LipschitzVerifier(model)
        xs = dataset.x_test[:num_samples]
        ys = dataset.y_test[:num_samples]
        for epsilon in epsilons:
            craft_certified = 0
            craft_times = []
            semisdp_certified = 0
            lipschitz_certified = 0
            bound = 0
            correct = 0
            attack_config = _attack_config(scale)
            verifier = RobustnessVerifier(model, config, attack_config)
            report = verifier.evaluate(xs, ys, epsilon, max_samples=num_samples)
            for record, x, label in zip(report.records, xs, ys):
                correct += record.correct
                bound += bool(record.empirically_robust)
                craft_certified += record.certified
                if record.correct:
                    craft_times.append(record.time_seconds)
                    semisdp_certified += surrogate.certify(x, int(label), epsilon).certified
                    lipschitz_certified += lipschitz.certify(x, int(label), epsilon).certified
            rows.append(
                {
                    "model": name,
                    "latent": model.latent_dim,
                    "epsilon": epsilon,
                    "acc": correct,
                    "bound": bound,
                    "craft_cert": craft_certified,
                    "craft_time": float(np.mean(craft_times)) if craft_times else 0.0,
                    "semisdp_cert": semisdp_certified,
                    "semisdp_time_model": surrogate.modelled_runtime(),
                    "lipschitz_cert": lipschitz_certified,
                    "samples": num_samples,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 12 — stability with respect to the damping parameter alpha
# ----------------------------------------------------------------------


def run_alpha_stability(
    scale: str = "small",
    model_name: str = "FCx40",
    alphas: Sequence[float] = (0.01, 0.02, 0.04, 0.06, 0.08, 0.1, 0.12, 0.15),
    epsilon: float = _EPSILONS_MNIST,
    solvers: Sequence[str] = ("pr", "fb"),
    domains: Sequence[str] = ("chzonotope", "zonotope"),
    max_samples: Optional[int] = None,
) -> List[Dict]:
    """Containment / certification counts as a function of alpha (Fig. 12).

    For each (solver, domain, alpha) configuration the runner counts for
    how many samples the containment phase succeeds and how many are
    certified, reproducing the stability-range comparison: ``"chzonotope"``
    is Craft with its Box component, ``"zonotope"`` without it.
    """
    model, dataset = get_model(model_name, scale)
    if max_samples is None:
        max_samples = max(4, _SAMPLES_BY_SCALE[scale] // 2)
    xs = dataset.x_test[:max_samples]
    ys = dataset.y_test[:max_samples]
    rows = []
    for solver in solvers:
        for domain in domains:
            for alpha in alphas:
                config = CraftConfig(
                    domains=(domain,),
                    solver1=solver,
                    alpha1=float(alpha),
                    solver2="fb",
                    slope_optimization="none",
                )
                contained = 0
                certified = 0
                for x, label in zip(xs, ys):
                    if model.predict(x) != int(label):
                        continue
                    result = certify_sample(model, x, int(label), epsilon, config)
                    contained += result.contained
                    certified += result.certified
                rows.append(
                    {
                        "solver": solver,
                        "domain": domain,
                        "alpha": float(alpha),
                        "contained": contained,
                        "certified": certified,
                        "samples": int(max_samples),
                    }
                )
    return rows


# ----------------------------------------------------------------------
# Fig. 13 — mean concretisation width over solver iterations
# ----------------------------------------------------------------------


def run_width_trace(
    scale: str = "small",
    model_name: str = "FCx40",
    epsilon: float = _EPSILONS_MNIST,
    iterations: int = 40,
    sample_index: int = 0,
) -> Dict[str, List[float]]:
    """Mean width of the state abstraction per iteration, Box vs CH-Zonotope,
    for FB and PR splitting (Fig. 13)."""
    model, dataset = get_model(model_name, scale)
    x = dataset.x_test[sample_index]
    traces: Dict[str, List[float]] = {}
    for solver in ("fb", "pr"):
        for domain in ("box", "chzonotope"):
            alpha = 0.4 * model.fb_alpha_bound() if solver == "fb" else 0.1
            config = CraftConfig(
                domains=(domain,), solver1=solver, solver2="fb", alpha1=alpha,
                slope_optimization="none",
                contraction=ContractionSettings(max_iterations=iterations, abort_width=1e6),
            )
            problem = build_fixpoint_problem(
                model,
                LinfBall(center=x, epsilon=epsilon),
                ClassificationSpec(target=int(model.predict(x)), num_classes=model.output_dim),
                config,
            )
            engine = ContractionEngine(
                config.contraction, domain_ops_for(domain), ExpansionSchedule.from_config(config)
            )
            result = engine.run(problem.contraction_step, problem.initial_state)
            trace = list(result.width_trace)
            traces[f"{solver}_{domain}"] = trace
    return traces


# ----------------------------------------------------------------------
# Fig. 17 — adaptive alpha2 selection
# ----------------------------------------------------------------------


def run_adaptive_alpha(
    scale: str = "small",
    model_name: str = "FCx40",
    alpha1_values: Sequence[float] = (0.02, 0.12),
    epsilon: float = _EPSILONS_MNIST,
    max_samples: Optional[int] = None,
) -> List[Dict]:
    """Distribution of the alpha2 the phase-two race selects for different alpha1 (Fig. 17)."""
    model, dataset = get_model(model_name, scale)
    if max_samples is None:
        max_samples = max(4, _SAMPLES_BY_SCALE[scale] // 2)
    rows = []
    for alpha1 in alpha1_values:
        config = CraftConfig(solver1="pr", alpha1=float(alpha1), solver2="fb",
                             slope_optimization="none")
        for index in range(max_samples):
            x = dataset.x_test[index]
            label = int(dataset.y_test[index])
            if model.predict(x) != label:
                continue
            result = certify_sample(model, x, label, epsilon, config)
            if result.selected_alpha2 is None:
                continue
            rows.append(
                {
                    "alpha1": float(alpha1),
                    "alpha2": float(result.selected_alpha2),
                    "verified": bool(result.certified),
                    "sample": index,
                }
            )
    return rows


# ----------------------------------------------------------------------
# Fig. 20 — sound CH-Zonotope bounds vs unsound Zonotope replay
# ----------------------------------------------------------------------


def run_unsound_zonotope_comparison(
    scale: str = "small",
    model_name: str = "FCx40",
    epsilon: float = _EPSILONS_MNIST,
    max_samples: Optional[int] = None,
    config: Optional[CraftConfig] = None,
) -> List[Dict]:
    """Compare the verification-objective bounds obtained with CH-Zonotope
    (consolidation + containment checks, sound) against a plain Zonotope
    replay of the same number of solver iterations without consolidation
    (no containment, hence unsound) — Fig. 20.
    """
    model, dataset = get_model(model_name, scale)
    config = config if config is not None else CraftConfig(slope_optimization="none")
    if max_samples is None:
        max_samples = max(4, _SAMPLES_BY_SCALE[scale] // 2)
    verifier = CraftVerifier(config)
    rows = []
    for index in range(max_samples):
        x = dataset.x_test[index]
        label = int(dataset.y_test[index])
        if model.predict(x) != label:
            continue
        ball = LinfBall(center=x, epsilon=epsilon)
        spec = ClassificationSpec(target=label, num_classes=model.output_dim)
        problem = build_fixpoint_problem(model, ball, spec, config)
        result = verifier.solve(problem)
        if not result.contained:
            continue
        total_iterations = result.iterations_phase1 + result.iterations_phase2

        # Unsound replay: the same solver iterations on a plain Zonotope,
        # no consolidation, no containment check.
        layout = layout_for(model, config.solver1)
        concrete = solve_fixpoint(model, x, method=config.solver1, alpha=config.alpha1)
        state = build_initial_state(model, layout, concrete.z, domain=Zonotope)
        step = make_abstract_step(model, layout, ball.to_zonotope(), config.solver1, config.alpha1)
        for _ in range(total_iterations):
            state = step(state)
        output = make_output_map(model, layout)(state)
        unsound_check = spec.evaluate(output)

        rows.append(
            {
                "sample": index,
                "verified": bool(result.certified),
                "craft_lower_bound": float(result.margin),
                "craft_width": _bound_width(result),
                "unsound_lower_bound": float(unsound_check.margin),
                "unsound_width": float(np.mean(output.width)),
                "iterations": int(total_iterations),
            }
        )
    return rows


def _bound_width(result) -> float:
    if result.output_element is None:
        return float("nan")
    return float(np.mean(result.output_element.width))
