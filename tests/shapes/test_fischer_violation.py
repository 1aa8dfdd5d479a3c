"""E13 — Fischer loses exclusion under asynchrony; Algorithm 3 does not."""

from repro.analysis.experiments import run_e13


def test_e13_fischer_violated_alg3_immune():
    table = run_e13(max_ops=24)
    by_name = {row[0]: row for row in table.rows}
    fischer = by_name["fischer (Algorithm 2)"]
    alg3 = by_name["Algorithm 3"]
    # Shape: Fischer admits violating interleavings, with a short witness.
    assert fischer[2] > 0
    assert fischer[3] is not None and fischer[3] <= 12
    # Shape: Algorithm 3's exploration is exhaustive at this bound and
    # finds nothing.
    assert alg3[2] == 0
    assert alg3[1] > fischer[1]  # it genuinely explored a larger space
