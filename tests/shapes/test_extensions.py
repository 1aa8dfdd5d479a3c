"""Extension tables X1-X3: the §4 features must show their shapes."""

from repro.analysis.extensions import run_x1, run_x2, run_x3


def test_x1_adaptive_mutex_arc():
    table = run_x1()
    rows = {row[0]: row for row in table.rows}
    under, right = rows[0.01], rows[1.0]
    # Exclusion held in both regimes.
    assert under[4] and right[4]
    # The underestimate grew; the correct estimate did not move.
    assert under[1] > 0.01
    assert right[1] == 1.0
    # The underestimate's flood drained back to a serialized doorway.
    assert under[2] >= 2
    assert under[3] == 1


def test_x2_omega_converges():
    table = run_x2()
    rows = {row[0]: row for row in table.rows}
    clean = rows["clean"]
    stalled = rows["node-0 stalled 12 periods"]
    # Both scenarios converge on node 0.
    assert clean[1] == 0 and stalled[1] == 0
    # The stall left a churn footprint; the clean run did not.
    assert stalled[2] and not clean[2]


def test_x3_rmr_shapes():
    table = run_x3(n=8)
    rmr = dict(zip(table.column("lock"), table.column("RMR / entry")))
    # The ticket lock's FAA + local spin is the cheapest.
    assert rmr["ticket"] < rmr["fischer"]
    assert rmr["ticket"] < rmr["alg3"]
    # The bakery's Θ(n) remote doorway scan is the most expensive.
    assert rmr["bakery"] > rmr["ticket"]
