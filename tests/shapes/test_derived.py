"""E12 — derived wait-free objects under failure injection."""

from repro.analysis.experiments import run_e12


def test_e12_derived_objects_safe_under_failures():
    table = run_e12(n=4)
    # Shape: every derived object keeps its safety property with a process
    # suffering an 8x slowdown window (timing failures).
    assert all(table.column("safe under failures")), table.render()
    # Shape: all objects complete in bounded time in both regimes.
    for column in ("clean time (Δ)", "with failures (Δ)"):
        assert all(v is not None and v < 500 for v in table.column(column))
