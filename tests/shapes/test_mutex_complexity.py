"""E7 — §3 headline: O(Δ) time complexity vs asynchronous baselines."""

from repro.analysis.experiments import run_e7


def test_e7_alg3_flat_baselines_grow():
    ns = (2, 4, 8, 16)
    table = run_e7(ns=ns)
    by_name = {row[0]: row for row in table.rows}
    grows_col = len(ns) + 1

    # Shape: the timing-based locks stay O(Δ) — flat in n.
    for name in ("alg3", "fischer"):
        assert not by_name[name][grows_col], table.render()
    # Shape: the scan-based asynchronous locks grow with n.
    for name in ("bakery", "filter"):
        assert by_name[name][grows_col], table.render()
    # Shape: the crossover — at the largest n the asynchronous scanners
    # are at least 2x worse than Algorithm 3.
    largest = len(ns)  # column index of the largest-n metric
    assert by_name["bakery"][largest] > 2.0 * by_name["alg3"][largest]
    assert by_name["filter"][largest] > 2.0 * by_name["alg3"][largest]
