"""E8 — Theorems 3.2/3.3: convergence and the embedded lock's fairness."""

from repro.analysis.experiments import run_e8


def test_e8_starvation_free_converges_faster():
    table = run_e8()
    by_name = {row[0]: row for row in table.rows}
    sf = by_name["bar_david(lamport_fast)"]
    df = by_name["lamport_fast"]
    # Shape: mutual exclusion (stabilization) holds for both variants.
    assert sf[1] and df[1]
    # Shape: the starvation-free A drains the flooded victim promptly...
    assert sf[2] is not None and sf[2] <= 30.0
    # ...while the deadlock-free-only A delays it by a large factor (the
    # measurable face of Theorem 3.2's "not guaranteed to converge").
    assert df[3] is None or df[3] >= 2.0, table.render()
