"""The paper's running example (Section 2, Eq. 1, Figs. 2 and 4).

A 2-d monDEQ classifier on the square ``[-1, 1]^2`` with

    g(x, s) = ReLU( 1/10 [[5, -1], [1, 5]] s + 1/10 [[1, 1], [-1, 1]] x )
    y(s)    = (1, -1) s,

parametrised (Section 5.1, "Example") by ``m = 4``, ``P = I``,
``Q = [[1, 0], [1, 0]]``, FB damping ``alpha = 1/10``.  The example input is
``x = (0.2, 0.5)`` with fixpoint ``s* ~ (0.1231, 0.0846)`` and output
``y ~ 0.0385 > 0`` (class 1); the analysed region is the l-infinity ball of
radius 0.05 around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.config import CraftConfig
from repro.mondeq.model import MonDEQ
from repro.mondeq.solvers import solve_fixpoint
from repro.verify.baselines import KleeneZonotopeVerifier
from repro.verify.robustness import certify_sample

EXAMPLE_INPUT = np.array([0.2, 0.5])
EXAMPLE_EPSILON = 0.05


def make_running_example_model() -> MonDEQ:
    """Construct the 2-d monDEQ of Eq. (1).

    The read-out maps the latent fixpoint to the two class scores
    ``(y, 0)``: class 1 is predicted exactly when ``y = s_1 - s_2 > 0``,
    matching the paper's single-output formulation.
    """
    p_weight = np.eye(2)
    q_weight = np.array([[1.0, 0.0], [1.0, 0.0]])
    u_weight = np.array([[1.0, 1.0], [-1.0, 1.0]])
    v_weight = np.array([[1.0, -1.0], [0.0, 0.0]])
    return MonDEQ(
        u_weight=u_weight,
        p_weight=p_weight,
        q_weight=q_weight,
        bias=np.zeros(2),
        v_weight=v_weight,
        v_bias=np.zeros(2),
        monotonicity=4.0,
        name="running-example",
    )


@dataclass
class RunningExampleResult:
    """Quantities visualised in Figs. 2 and 4."""

    fixpoint: np.ndarray
    output: float
    craft_certified: bool
    craft_margin: float
    craft_output_bounds: Tuple[float, float]
    kleene_certified: bool
    kleene_margin: float
    kleene_output_bounds: Tuple[float, float]

    def as_dict(self) -> Dict[str, float]:
        return {
            "fixpoint_1": float(self.fixpoint[0]),
            "fixpoint_2": float(self.fixpoint[1]),
            "output": self.output,
            "craft_certified": self.craft_certified,
            "craft_margin": self.craft_margin,
            "craft_lower": self.craft_output_bounds[0],
            "craft_upper": self.craft_output_bounds[1],
            "kleene_certified": self.kleene_certified,
            "kleene_margin": self.kleene_margin,
            "kleene_lower": self.kleene_output_bounds[0],
            "kleene_upper": self.kleene_output_bounds[1],
        }


def _output_score_bounds(result) -> Tuple[float, float]:
    """Bounds of the decision score ``y = y_1 - y_2`` from a verification result."""
    if result.output_element is None:
        return (-np.inf, np.inf)
    difference = result.output_element.affine(np.array([[1.0, -1.0]]))
    lower, upper = difference.concretize_bounds()
    return float(lower[0]), float(upper[0])


def run_running_example(
    x: np.ndarray = EXAMPLE_INPUT,
    epsilon: float = EXAMPLE_EPSILON,
    config: CraftConfig = None,
) -> RunningExampleResult:
    """Analyse the running example with Craft and the Kleene baseline.

    Reproduces the qualitative content of Figs. 2 and 4: Craft's output
    abstraction stays strictly positive (the region is certified to class 1)
    while the Kleene abstraction straddles zero and fails to certify.
    """
    model = make_running_example_model()
    if config is None:
        config = CraftConfig(
            solver1="fb", solver2="fb", alpha1=0.1, alpha2_grid=(0.1,),
            slope_optimization="none",
        )
    concrete = solve_fixpoint(model, x, method="fb", alpha=0.1)
    output = float(model.readout(concrete.z)[0] - model.readout(concrete.z)[1])

    craft = certify_sample(model, x, label=0, epsilon=epsilon, config=config,
                           clip_min=-1.0, clip_max=1.0)
    kleene = KleeneZonotopeVerifier(model, solver="fb", alpha=0.1).certify(
        x, label=0, epsilon=epsilon
    )
    return RunningExampleResult(
        fixpoint=concrete.z,
        output=output,
        craft_certified=craft.certified,
        craft_margin=craft.margin,
        craft_output_bounds=_output_score_bounds(craft),
        kleene_certified=kleene.certified,
        kleene_margin=kleene.margin,
        kleene_output_bounds=_output_score_bounds(kleene),
    )
