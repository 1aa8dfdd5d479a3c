"""E11 — known Δ (c·Δ) vs unknown bound (doubling rounds)."""

from repro.analysis.experiments import run_e11


def test_e11_unknown_bound_pays_log_rounds():
    ratios = (1.0, 0.25, 0.0625, 0.015625)
    table = run_e11(est_ratios=ratios)
    alg1_rounds = table.column("alg1 rounds")
    aat_rounds = table.column("aat rounds")
    gaps = table.column("aat/alg1")
    # Shape: Algorithm 1 always needs 2 rounds against the worst legal
    # schedule.
    assert all(r == 2 for r in alg1_rounds)
    # Shape: AAT's rounds grow as the initial estimate shrinks —
    # one extra round per estimate doubling (log2 of the ratio).
    assert aat_rounds == sorted(aat_rounds)
    assert aat_rounds[-1] >= aat_rounds[0] + 4
    # Shape: the time gap widens monotonically.
    assert gaps == sorted(gaps)
    assert gaps[-1] >= 2.0
