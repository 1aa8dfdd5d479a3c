"""Integration tests: the experiment drivers produce well-formed tables
with the claimed shapes (reduced parameters — the full shape assertions
live in tests/shapes/)."""

import pytest

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    _experiment_order,
    run_e1,
    run_e4,
    run_e5,
    run_e9,
    run_e11,
    run_all,
)
from repro.analysis.tables import ExperimentTable


def test_registry_covers_e1_to_e13_plus_networked():
    expected = [f"E{i}" for i in range(1, 14)] + ["E1N", "E8N"]
    assert sorted(ALL_EXPERIMENTS, key=_experiment_order) == sorted(
        expected, key=_experiment_order
    )
    assert all(callable(fn) for fn in ALL_EXPERIMENTS.values())


def test_run_all_unknown_id_rejected():
    with pytest.raises(SystemExit):
        run_all(["E99"])


def test_run_all_subset():
    (table,) = run_all(["E4"])
    assert isinstance(table, ExperimentTable)
    assert table.experiment_id == "E4"


class TestReducedDrivers:
    def test_e1_reduced(self):
        table = run_e1(ns=(1, 2), seeds=(0,))
        assert len(table.rows) == 2
        assert all(table.column("within 15Δ"))

    def test_e4_exact_seven(self):
        table = run_e4()
        assert table.rows[0][1] == 7

    def test_e5_reduced(self):
        table = run_e5(ns=(2, 4))
        per_proc = table.column("steps per process")
        assert per_proc[0] == per_proc[1]

    def test_e9_reduced(self):
        table = run_e9(n=4)
        names = table.column("algorithm")
        assert "fischer" in names
        assert any("alg3" in str(n) for n in names)

    def test_e11_reduced(self):
        table = run_e11(est_ratios=(1.0, 0.25))
        rounds = table.column("aat rounds")
        assert rounds[1] > rounds[0]

    def test_tables_render_and_markdown(self):
        table = run_e4()
        assert "[E4]" in table.render()
        assert table.to_markdown().startswith("**[E4]")
