"""Cache-aware batch sizing for the certification engines.

Batching wins roughly an order of magnitude on small-input models (HCAS,
input dimension 3) because the sequential loop is interpreter-bound.  On
wide-input models the generator stacks decide: a batch of ``B`` samples
streams ``B * state_dim * k`` doubles through every BLAS call, and once
that working set spills the last-level cache the batch goes DRAM-bound
and the speedup collapses.  Phase one appends the input's error symbols
as fresh columns every step, so its count grows by ``input_dim`` plus the
ReLU's Box columns per step until its next consolidation.  Phase two
keeps the input symbols in one shared block, so it grows only by the
ReLU's Box columns per step, at most one per latent coordinate
(:func:`error_growth_per_step`).

This module estimates the peak error-term count of both phases from the
model shape and the configuration (including the bound that periodic
phase-two consolidation provides, ``CraftConfig.tighten_consolidate_every``)
and picks the largest batch size whose working set fits the last-level
cache.  The estimate is deliberately a smooth upper-bound model — batch
sizing never changes verdicts, only memory locality, so being a factor off
costs throughput, not soundness.
"""

from __future__ import annotations

import glob
from typing import Optional

from repro.core.config import CraftConfig
from repro.mondeq.model import MonDEQ

#: Fallback last-level-cache budget when the host does not expose one.
DEFAULT_LLC_BYTES = 32 * 2**20

#: Bounds on the automatically chosen batch size.  The lower bound keeps
#: degenerate estimates from serialising the sweep entirely; the upper
#: bound caps scheduling granularity (beyond 256 the per-batch Python
#: overhead is already negligible).
MIN_AUTO_BATCH = 4
MAX_AUTO_BATCH = 256

_BYTES_PER_FLOAT = 8

#: Live arrays per iteration touching the full generator stack: the state,
#: the freshly produced state and the step's intermediate (the propagated
#: element before the ReLU).
_LIVE_STACKS = 3


def detect_llc_bytes(default: int = DEFAULT_LLC_BYTES) -> int:
    """Size in bytes of the largest CPU cache the host exposes via sysfs.

    Falls back to ``default`` (32 MiB) when sysfs is unavailable (macOS,
    containers with masked /sys) or unparsable.
    """
    best = 0
    for path in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*/size"):
        try:
            with open(path, "r", encoding="ascii") as handle:
                text = handle.read().strip()
        except OSError:
            continue
        try:
            if text.endswith("K"):
                size = int(text[:-1]) * 1024
            elif text.endswith("M"):
                size = int(text[:-1]) * 1024 * 1024
            else:
                size = int(text)
        except ValueError:
            continue
        best = max(best, size)
    return best if best > 0 else default


def state_dim(model: MonDEQ, config: CraftConfig) -> int:
    """Dimension of the joint solver state (PR carries an auxiliary block)."""
    return (2 if config.solver1 == "pr" else 1) * model.latent_dim


def error_growth_per_step(model: MonDEQ, config: CraftConfig) -> int:
    """Estimated generator columns added per tightening step.

    Phase-two steps share the input's error symbols: the injection adds
    into the input block, which :func:`max_error_terms` counts once, in its
    base.  What a step appends are the ReLU's Box columns: its affine
    transformer casts the Box radii the previous ReLU left into fresh
    columns, one per non-zero radius.  The ReLU acts on the ``z`` block
    only — the PR layout's auxiliary block passes through
    (``StateLayout.relu_pass_through``) and gets no radius — so a step
    appends at most one column per latent coordinate.
    """
    return model.latent_dim


def max_error_terms(model: MonDEQ, config: CraftConfig, domain: Optional[str] = None) -> int:
    """Upper-bound error-term count reached during either Craft phase.

    Phase two starts from a consolidated state (``state_dim`` square
    generators) plus the input block, and grows by
    :func:`error_growth_per_step` per step until either the phase-two
    budget runs out or a periodic consolidation
    (``tighten_consolidate_every``) resets it.  Phase one keeps fresh input
    symbols, so between its consolidations (every
    ``contraction.consolidate_every`` steps) each step also appends
    ``input_dim`` columns; on wide inputs with a tight phase-two cadence
    its iterates are the larger of the two.

    The estimate is clamped to the **per-stage domain layout** (``domain``
    defaults to ``config.domain``, i.e. the most precise ladder stage):

    * ``"box"`` carries no generator stack at all — its representation is
      two bound vectors per sample — so its error-term count is the
      constant 1 (the per-sample bound pair folded into the stack
      constant).  Sizing a Box stage by the generator model would shrink
      its batches by orders of magnitude for no locality gain.
    * ``"parallelotope"`` keeps fresh input symbols and reduces to a square
      error matrix after every ReLU, so the count is bounded by one step of
      growth (input columns plus ReLU columns) over ``state_dim``
      regardless of the phase-two budget.
    * the zonotope-family domains take the larger of the two phase peaks.
    """
    if domain is None:
        domain = config.domain
    if domain == "box":
        return 1
    n = state_dim(model, config)
    growth = error_growth_per_step(model, config)
    if domain == "parallelotope":
        return n + model.input_dim + growth
    horizon = config.tighten_max_iterations
    if config.tighten_consolidate_every > 0:
        horizon = min(horizon, config.tighten_consolidate_every)
    phase_two = n + model.input_dim + horizon * growth
    phase_one = n + config.contraction.consolidate_every * (model.input_dim + growth)
    return max(phase_one, phase_two)


def phase2_working_set_bytes(
    model: MonDEQ, config: CraftConfig, batch_size: int, domain: Optional[str] = None
) -> int:
    """Estimated bytes a phase-two iteration streams for ``batch_size`` rows.

    For the zonotope-family domains the generator stacks
    ``(B, state_dim, k)`` dominate; centers, Box radii and concretised
    bounds are ``O(B * state_dim)`` and folded into the stack constant.
    For the Box domain the whole representation *is* the ``O(B *
    state_dim)`` term, so the estimate reduces to the bound arrays and the
    automatic batch size clamps to ``MAX_AUTO_BATCH``.  ``domain``
    overrides the stage layout (default: ``config.domain``).
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    n = state_dim(model, config)
    k = max_error_terms(model, config, domain=domain)
    return batch_size * _LIVE_STACKS * n * k * _BYTES_PER_FLOAT


def auto_batch_size(
    model: MonDEQ,
    config: Optional[CraftConfig] = None,
    budget_bytes: Optional[int] = None,
    domain: Optional[str] = None,
) -> int:
    """Largest batch whose phase-two working set fits the LLC budget.

    Precedence: an explicit ``config.engine_batch_size`` wins outright;
    otherwise ``budget_bytes`` (or ``config.cache_budget_bytes``, or the
    detected LLC size) divided by the per-sample working set, clamped to
    ``[MIN_AUTO_BATCH, MAX_AUTO_BATCH]``.

    ``domain`` sizes one **ladder stage**: the working set is evaluated
    for that stage's layout instead of ``config.domain`` (the most precise
    stage).  Without it, a Box stage of an escalation ladder would be
    shrunk to the CH-Zonotope batch size — a pure throughput loss, since
    the Box stage streams no generator stack at all.
    """
    config = config if config is not None else CraftConfig()
    if config.engine_batch_size is not None:
        return config.engine_batch_size
    if budget_bytes is None:
        budget_bytes = (
            config.cache_budget_bytes
            if config.cache_budget_bytes is not None
            else detect_llc_bytes()
        )
    per_sample = phase2_working_set_bytes(model, config, 1, domain=domain)
    fitting = budget_bytes // max(per_sample, 1)
    return int(min(MAX_AUTO_BATCH, max(MIN_AUTO_BATCH, fitting)))


def stage_error_term_estimates(
    model: MonDEQ, config: Optional[CraftConfig] = None
) -> dict:
    """Per-stage analytic peak error-term estimates for a ladder config.

    One :func:`max_error_terms` evaluation per stage of ``config.domains``
    — the numbers the escalation machinery surfaces next to the
    *measured* per-stage peaks (``StageStats.peak_error_terms`` /
    ``VerificationResult.peak_error_terms``), so sweep reports show how
    tight the working-set model actually is on the workload at hand.
    """
    config = config if config is not None else CraftConfig()
    return {
        name: max_error_terms(model, config, domain=name) for name in config.domains
    }


def stage_batch_sizes(
    model: MonDEQ,
    config: Optional[CraftConfig] = None,
    budget_bytes: Optional[int] = None,
) -> dict:
    """Per-stage batch sizes for every domain of ``config.domains``.

    The waterfall scheduler sizes each ladder stage independently: Box
    stages clamp to ``MAX_AUTO_BATCH`` (no generator budget), CH-Zonotope
    stages keep the LLC fit.  An explicit ``config.engine_batch_size``
    pins every stage, exactly as it pins a single-domain sweep.
    """
    config = config if config is not None else CraftConfig()
    return {
        name: auto_batch_size(model, config, budget_bytes=budget_bytes, domain=name)
        for name in config.domains
    }
