"""E10 — optimistic(Δ): the cliff at Δ and AIMD finding the knee."""

from repro.analysis.experiments import run_e10


def test_e10_cliff_at_delta():
    table = run_e10(ratios=(0.25, 0.5, 1.0, 2.0, 5.0), cap=100.0)
    rows = {row[0]: row for row in table.rows}
    # Shape: below Δ the worst legal schedule wins every round — undecided
    # within the cap, but always safe.
    for ratio in (0.25, 0.5):
        assert not rows[ratio][1], table.render()
        assert rows[ratio][4]  # safe
    # Shape: at and above Δ, decided in round 2.
    for ratio in (1.0, 2.0, 5.0):
        assert rows[ratio][1]
        assert rows[ratio][3] <= 2
    # Shape: above the knee, latency grows with the estimate.
    assert rows[5.0][2] > rows[1.0][2]
