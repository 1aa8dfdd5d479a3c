"""Import budget: importing a module loads only what it uses.

Every package ``__init__`` exports lazily (``repro._exports``), so a
worker that simulates registers never compiles the algorithms zoo, the
spec checkers or the asyncio service.  Each case runs in a fresh
interpreter, since this one has long loaded everything.  The one name
bound eagerly, ``repro.verify.fuzz`` (the function, which shadows its
submodule), is checked the same way.  To see where
import time goes: ``python -X importtime -c "import repro.sim"``.
"""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")

# (statement, module prefixes it must not load)
CASES = [
    ("import repro.sim", ("repro.core", "repro.algorithms", "repro.spec")),
    ("import repro.serve.workload", ("asyncio",)),
    ("import repro.chaos.runner", ("repro.net.fuzz",)),
]


def run_fresh(code):
    """Run ``code`` in a new interpreter; return what it printed."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("statement,forbidden", CASES, ids=[c[0] for c in CASES])
def test_import_loads_only_what_it_uses(statement, forbidden):
    loaded = run_fresh(f"import sys\n{statement}\nprint('\\n'.join(sys.modules))").split()
    over = [m for m in loaded
            if any(m == f or m.startswith(f + ".") for f in forbidden)]
    assert not over, f"{statement!r} loaded {over}"


def test_verify_fuzz_stays_the_function():
    # The import system rebinds a package attribute to a submodule when
    # it first loads it; the eagerly bound function must survive that.
    run_fresh(
        "import sys, repro.verify.fuzz, repro.verify as v\n"
        "assert v.fuzz is sys.modules['repro.verify.fuzz'].fuzz, v.fuzz"
    )
