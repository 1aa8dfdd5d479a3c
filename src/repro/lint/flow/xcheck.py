"""Static↔dynamic cross-validation: the analyzer's claims, falsified or not.

The flow facts (:mod:`repro.lint.flow.facts`) are *may*-analyses: "this
module's programs may read/write exactly these registers".  Sound
over-approximation has a testable consequence — every access a real
execution performs must appear in the static set.  This harness closes
that loop for every algorithm in the experiments registry:

1. **static side** — build :class:`ModuleFlow` fact bases for the whole
   algorithms package, with a cross-module resolver so ``yield from``
   of an imported helper (the tournament lock delegating into
   ``peterson_acquire``) substitutes through to creation-site leafs;
2. **dynamic side** — run the algorithm on the real engine under a
   deterministic timing model, inside a fresh
   :class:`~repro.sim.registers.RegisterNamespace`, and project the
   trace onto that namespace: every shared event becomes an observed
   ``(op kind, register leaf)`` pair;
3. **compare** — an observed pair missing from the static access set is
   a :class:`Contradiction` and fails the check.  So is a probe/trace
   counter mismatch (the EngineProbe and the trace must agree on how
   many shared ops happened), and a run that does not complete.

A contradiction means one of three things, all bugs: the CFG missed an
op site, the interprocedural substitution resolved a handle wrongly, or
the engine executed something the recognizer cannot see.  None are
tolerable silently — that is the point.

Run it directly::

    python -m repro.lint.flow.xcheck          # exit 1 on contradictions
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..context import build_context
from .facts import LEAF, ModuleFlow

__all__ = [
    "Contradiction",
    "XCheckTarget",
    "default_targets",
    "project_flows",
    "run_target",
    "run_xcheck",
    "main",
]

_SHARED_KINDS = ("read", "write", "rmw")


@dataclass(frozen=True)
class Contradiction:
    """One static↔dynamic disagreement."""

    target: str
    message: str

    def render(self) -> str:
        return f"{self.target}: {self.message}"


@dataclass(frozen=True)
class XCheckTarget:
    """One algorithm to cross-validate.

    ``module`` is the file whose flow facts make the static claim;
    ``prefix`` the namespace prefix the dynamic run is projected onto;
    ``make`` builds the programs to execute, each paired with its pid
    (constructing the algorithm inside a namespace rooted at
    ``prefix``).
    """

    name: str
    module: str
    prefix: str
    make: Callable[[], Sequence[Tuple[int, object]]]


# ---------------------------------------------------------------------------
# Static side
# ---------------------------------------------------------------------------


def _import_map(tree: ast.Module) -> Dict[str, Tuple[str, str]]:
    """Local name -> (module basename, original name) for relative imports."""
    out: Dict[str, Tuple[str, str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            base = node.module.rsplit(".", 1)[-1]
            for alias in node.names:
                if alias.name == "*":
                    continue
                out[alias.asname or alias.name] = (base, alias.name)
    return out


def project_flows(paths: Sequence[str]) -> Dict[str, ModuleFlow]:
    """Flow fact bases for a set of modules, cross-resolving imports.

    Keyed by module basename (``fischer`` for ``.../fischer.py``).  Each
    module's external resolver follows its import table, so delegation
    to a program imported from a sibling module substitutes through that
    module's facts instead of going opaque.
    """
    flows: Dict[str, ModuleFlow] = {}
    imports: Dict[str, Dict[str, Tuple[str, str]]] = {}
    for path in paths:
        base = os.path.splitext(os.path.basename(path))[0]
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            ctx = build_context(path, source)
        except SyntaxError:
            continue
        flows[base] = ModuleFlow(ctx)
        imports[base] = _import_map(ctx.tree)

    def resolver_for(base: str):
        def resolve(name: str) -> Optional[Tuple[ModuleFlow, str]]:
            entry = imports.get(base, {}).get(name)
            if entry is None:
                return None
            other_base, original = entry
            other = flows.get(other_base)
            if other is None:
                return None
            if original in other.programs:
                return other, original
            return None

        return resolve

    for base, flow in flows.items():
        flow.external_resolver = resolver_for(base)
    return flows


def static_access_set(flow: ModuleFlow) -> Tuple[set, bool]:
    """The module's may-access claim as ``{(kind, leaf)}`` + completeness."""
    targets, complete = flow.module_accesses()
    out = set()
    for t in targets:
        if t.cls == LEAF:
            out.add((t.kind, t.name))
        else:
            complete = False
    return out, complete


# ---------------------------------------------------------------------------
# Dynamic side
# ---------------------------------------------------------------------------


def _under_prefix(name: object, prefix: str) -> bool:
    """True when a runtime register name belongs to the target namespace.

    Scalars are ``(prefix, leaf)``; array cells ``((prefix, base), i)``.
    Nested namespaces get tuple heads whose first element is the parent
    prefix — targets use disjoint top-level prefixes, so equality on the
    head's root is the membership test.
    """
    if not isinstance(name, tuple) or not name:
        return False
    head = name[0]
    while isinstance(head, tuple) and head:
        head = head[0]
    return head == prefix


def dynamic_access_set(
    target: XCheckTarget,
) -> Tuple[set, Dict[str, int], Dict[str, int], str]:
    """Run the target and project its trace onto the namespace.

    Returns ``(observed pairs, probe counters, trace counters, status)``.
    """
    from ...sim import ConstantTiming, Engine
    from ...sim.adversary import register_leaf
    from ...sim.instrument import EngineProbe, probe_scope

    probe = EngineProbe()
    with probe_scope(probe):  # the engine adopts the ambient probe at build
        engine = Engine(
            delta=1.0, timing=ConstantTiming(0.1), max_time=10_000.0
        )
        for pid, program in target.make():
            engine.spawn(program, pid=pid)
        result = engine.run()
    observed = set()
    trace_counts = {kind: 0 for kind in _SHARED_KINDS}
    for event in result.trace:
        if event.kind in trace_counts:
            trace_counts[event.kind] += 1
        if event.register is None or event.kind not in _SHARED_KINDS:
            continue
        if not _under_prefix(event.register, target.prefix):
            continue
        observed.add((event.kind, register_leaf(event.register)))
    probe_counts = {
        "read": probe.reads,
        "write": probe.writes,
        "rmw": probe.rmws,
    }
    return observed, probe_counts, trace_counts, str(result.status)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def run_target(
    target: XCheckTarget, flows: Dict[str, ModuleFlow]
) -> List[Contradiction]:
    """Cross-validate one target; empty list means no contradiction."""
    base = os.path.splitext(os.path.basename(target.module))[0]
    flow = flows.get(base)
    if flow is None:
        return [Contradiction(target.name, f"no flow facts for {base!r}")]
    static, _complete = static_access_set(flow)
    observed, probe_counts, trace_counts, status = dynamic_access_set(target)
    out: List[Contradiction] = []
    if "COMPLETED" not in status:
        out.append(
            Contradiction(target.name, f"dynamic run did not complete: {status}")
        )
    for kind, leaf in sorted(observed):
        if (kind, leaf) not in static:
            out.append(
                Contradiction(
                    target.name,
                    f"dynamic trace observed `{kind}` of register "
                    f"{leaf!r} that the static access set of {base}.py "
                    "does not predict",
                )
            )
    # Memory.rmw counts as one read plus one write besides itself (the
    # primitive both observes and updates the cell), so the probe's
    # read/write totals exceed the trace's op counts by the rmw count.
    expected = {
        "read": trace_counts["read"] + trace_counts["rmw"],
        "write": trace_counts["write"] + trace_counts["rmw"],
        "rmw": trace_counts["rmw"],
    }
    for kind in _SHARED_KINDS:
        if probe_counts[kind] != expected[kind]:
            out.append(
                Contradiction(
                    target.name,
                    f"EngineProbe counted {probe_counts[kind]} {kind} ops "
                    f"but the trace implies {expected[kind]}",
                )
            )
    if not observed:
        out.append(
            Contradiction(
                target.name,
                "dynamic run touched no register under the target "
                "namespace — the harness is not exercising the algorithm",
            )
        )
    return out


# ---------------------------------------------------------------------------
# The registry targets
# ---------------------------------------------------------------------------


def _algorithms_dir() -> str:
    from ... import algorithms

    return os.path.dirname(os.path.abspath(algorithms.__file__))


def _mutex_programs(lock: object, n: int, sessions: int = 2):
    from ...algorithms import mutex_session

    return [
        (
            pid,
            mutex_session(
                lock, pid, sessions, cs_duration=0.1, ncs_duration=0.1
            ),
        )
        for pid in range(n)
    ]


def default_targets() -> List[XCheckTarget]:
    """One target per algorithm the experiments registry drives."""
    from ...sim.registers import RegisterNamespace

    alg = _algorithms_dir()

    def path(base: str) -> str:
        return os.path.join(alg, base + ".py")

    def fischer():
        from ...algorithms import FischerLock

        lock = FischerLock(delta=1.0, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def peterson2():
        from ...algorithms.peterson import PetersonTwoProcess

        lock = PetersonTwoProcess(namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 2)

    def filter_lock():
        from ...algorithms import FilterLock

        lock = FilterLock(3, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def tournament():
        from ...algorithms import TournamentLock

        lock = TournamentLock(4, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 4)

    def bakery():
        from ...algorithms import BakeryLock

        lock = BakeryLock(3, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def black_white():
        from ...algorithms import BlackWhiteBakeryLock

        lock = BlackWhiteBakeryLock(3, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def lamport_fast():
        from ...algorithms import LamportFastLock

        lock = LamportFastLock(3, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def bar_david():
        from ...algorithms import BarDavidLock, LamportFastLock

        # The inner lock lives in its *own* namespace so the projection
        # onto "xc" sees exactly the composing module's registers.
        inner = LamportFastLock(3, namespace=RegisterNamespace("xc-inner"))
        lock = BarDavidLock(inner, 3, namespace=RegisterNamespace("xc"))
        return _mutex_programs(lock, 3)

    def at_consensus():
        from ...algorithms import AtConsensus

        algo = AtConsensus(delta=1.0, namespace=RegisterNamespace("xc"))
        return [
            (pid, algo.propose(pid, value))
            for pid, value in ((0, 0), (1, 1), (2, 1))
        ]

    def aat_consensus():
        from ...algorithms import AatConsensus

        algo = AatConsensus(
            initial_estimate=1.0, namespace=RegisterNamespace("xc")
        )
        return [
            (pid, algo.propose(pid, value))
            for pid, value in ((0, 0), (1, 1), (2, 1))
        ]

    def dg_mutex():
        from ...algorithms import stabilizing_ring

        # The stabilizing session driver, not mutex_session: a stopped
        # process freezes the token, so finishers must keep forwarding.
        _lock, factory = stabilizing_ring(
            3, sessions=2, cs_duration=0.1, namespace=RegisterNamespace("xc")
        )
        return [(pid, factory(pid)) for pid in range(3)]

    def recoverable():
        from ...algorithms import RecoverableConsensus

        algo = RecoverableConsensus(namespace=RegisterNamespace("xc"))
        return [(pid, algo.propose(pid, pid + 1)) for pid in range(3)]

    return [
        XCheckTarget("fischer", path("fischer"), "xc", fischer),
        XCheckTarget("peterson2", path("peterson"), "xc", peterson2),
        XCheckTarget("filter", path("peterson"), "xc", filter_lock),
        XCheckTarget("tournament", path("tournament"), "xc", tournament),
        XCheckTarget("bakery", path("bakery"), "xc", bakery),
        XCheckTarget(
            "black_white_bakery", path("black_white_bakery"), "xc", black_white
        ),
        XCheckTarget("lamport_fast", path("lamport_fast"), "xc", lamport_fast),
        XCheckTarget("bar_david", path("bar_david"), "xc", bar_david),
        XCheckTarget("at_consensus", path("at_consensus"), "xc", at_consensus),
        XCheckTarget(
            "aat_consensus", path("aat_consensus"), "xc", aat_consensus
        ),
        XCheckTarget("dg_mutex", path("dg_mutex"), "xc", dg_mutex),
        XCheckTarget("recoverable", path("recoverable"), "xc", recoverable),
    ]


def run_xcheck(
    targets: Optional[Iterable[XCheckTarget]] = None,
) -> List[Contradiction]:
    """Cross-validate all targets; the programmatic entry point."""
    targets = list(targets) if targets is not None else default_targets()
    modules = sorted({t.module for t in targets})
    # Resolve within each module's own directory, so cross-module
    # delegation between siblings (tournament -> peterson) works.
    dirs = sorted({os.path.dirname(m) for m in modules})
    paths = [
        os.path.join(d, f)
        for d in dirs
        for f in sorted(os.listdir(d))
        if f.endswith(".py")
    ]
    flows = project_flows(paths)
    out: List[Contradiction] = []
    for target in targets:
        out.extend(run_target(target, flows))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    contradictions = run_xcheck()
    targets = default_targets()
    if contradictions:
        for c in contradictions:
            print(c.render())
        print(f"xcheck: {len(contradictions)} contradiction(s)")
        return 1
    print(
        f"xcheck: {len(targets)} algorithm(s) cross-validated, "
        "no static<->dynamic contradictions"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
