"""E6 — Theorems 2.2/2.3: safety, exhaustive and randomized."""

from repro.analysis.experiments import run_e6


def test_e6_zero_violations():
    table = run_e6(random_seeds=100, mc_max_ops=26)
    # Shape: zero safety violations in both the exhaustive model-checking
    # pass and the randomized adversity sweep.
    assert all(v == 0 for v in table.column("violations")), table.render()
