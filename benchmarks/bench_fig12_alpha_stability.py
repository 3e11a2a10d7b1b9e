"""Fig. 12 — stability of containment / certification w.r.t. the damping alpha."""

from _harness import run_once

from repro.experiments.local_robustness import run_alpha_stability


def test_fig12_alpha_stability(benchmark, record_rows):
    rows = run_once(
        benchmark,
        run_alpha_stability,
        scale="smoke",
        alphas=(0.02, 0.06, 0.1, 0.15),
        solvers=("pr",),
        domains=("chzonotope", "zonotope"),
        max_samples=3,
    )
    record_rows("Fig. 12: containment / certification vs alpha", rows)
    with_box = [row for row in rows if row["domain"] == "chzonotope"]
    # PR with the Box component finds containment across the alpha range
    # (the paper's headline stability claim).
    assert sum(row["contained"] for row in with_box) >= len(with_box)
