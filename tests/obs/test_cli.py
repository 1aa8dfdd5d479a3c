"""``python -m repro.obs``: malformed trace files are usage errors."""

import pytest

from repro.obs.__main__ import main


@pytest.mark.parametrize("command", ["summarize", "timeliness"])
@pytest.mark.parametrize("line, problem", [
    ("[1,2]", "record 1 is not an object"),
    ('{"kind":"op"}', "a record lacks field '"),
    ('{"kind":"op","op":"read","pid":0,"t0":"x","t1":1}', "ill-typed field"),
], ids=["array", "missing", "ill-typed"])
def test_malformed_trace_is_a_usage_error(command, line, problem, tmp_path, capsys):
    path = tmp_path / "trace.jsonl"
    path.write_text(line + "\n")
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and problem in err
