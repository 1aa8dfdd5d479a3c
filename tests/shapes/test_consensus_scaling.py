"""E5 — Theorem 2.1(5): open participation; flat per-process cost."""

import pytest

from repro.analysis.experiments import run_e5


def test_e5_flat_time_linear_steps():
    table = run_e5(ns=(2, 8, 32, 128))
    times = table.column("worst time (Δ)")
    steps = table.column("total shared steps")
    per_process = table.column("steps per process")
    ns = table.column("n")
    # Shape: per-process time and steps are flat in n.
    assert max(times) - min(times) <= 3.0
    assert max(per_process) - min(per_process) <= 4.0
    # Shape: total steps scale linearly with n.
    ratio = steps[-1] / steps[0]
    assert ratio == pytest.approx(ns[-1] / ns[0], rel=0.5)
