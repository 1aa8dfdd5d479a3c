"""Tests for the experiments' proposal-vector generator."""

import pytest

from repro.analysis.experiments import consensus_inputs


class TestConsensusInputs:
    def test_unanimous(self):
        assert consensus_inputs(3, "unanimous0") == [0, 0, 0]
        assert consensus_inputs(3, "unanimous1") == [1, 1, 1]

    def test_split_alternates(self):
        assert consensus_inputs(4, "split") == [0, 1, 0, 1]

    def test_random_seeded(self):
        a = consensus_inputs(10, "random", seed=3)
        b = consensus_inputs(10, "random", seed=3)
        assert a == b
        assert set(a) <= {0, 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            consensus_inputs(0)
        with pytest.raises(ValueError):
            consensus_inputs(3, "bogus")
