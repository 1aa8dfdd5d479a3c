"""Targeted timing adversaries.

The safety proofs of the paper quantify over *all* executions, including
ones where a timing failure strikes at the worst possible instant.  These
helpers build :class:`~repro.sim.timing.HookTiming` hooks that stretch
exactly the steps an adversary would pick:

* Algorithm 1's agreement argument worries about the write to ``y[r]``
  being stalled after a process read ``y[r] = ⊥`` — :func:`stall_write_to`
  with a predicate matching ``y``-cells reproduces that schedule;
* Fischer's algorithm (Algorithm 2) loses mutual exclusion when the write
  ``x := i`` is stalled past another process's ``delay(Δ)`` —
  :func:`stall_write_to` on ``x`` builds the classic violation;
* Theorem 3.2's non-convergence scenario keeps contention alive inside the
  embedded asynchronous algorithm — :func:`slow_after` keeps selected
  processes slow forever.

Hooks compose with :func:`compose_hooks`; the first hook that overrides a
step wins.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Optional, Sequence

from .ops import Read, Write
from .timing import StepContext

__all__ = [
    "Hook",
    "stall_write_to",
    "stall_read_of",
    "stall_step_index",
    "slow_after",
    "compose_hooks",
    "register_leaf",
    "round_conflict_hook",
]

# A hook inspects a step and may override its duration (None = keep).
Hook = Callable[[StepContext, float], Optional[float]]


def _matches(register_name: Hashable, target: object) -> bool:
    """Match a register name against a name, a predicate, or a prefix tuple."""
    if callable(target):
        return bool(target(register_name))
    if isinstance(target, tuple) and isinstance(register_name, tuple):
        return register_name[: len(target)] == target
    return register_name == target


def stall_write_to(
    target: object,
    duration: float,
    pids: Optional[Iterable[int]] = None,
    count: Optional[int] = 1,
) -> Hook:
    """Stretch writes to matching registers to ``duration`` time units.

    ``target`` may be an exact register name, a prefix tuple (matching
    array cells such as ``("y", r)`` under any namespace suffix), or a
    predicate over names.  Only the first ``count`` matching writes are
    stalled (``None`` = all of them).
    """
    affected = None if pids is None else frozenset(pids)
    remaining = [count]

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        if not isinstance(ctx.op, Write):
            return None
        if affected is not None and ctx.pid not in affected:
            return None
        if not _matches(ctx.op.register.name, target):
            return None
        if remaining[0] is not None:
            if remaining[0] <= 0:
                return None
            remaining[0] -= 1
        return max(nominal, duration)

    return hook


def stall_read_of(
    target: object,
    duration: float,
    pids: Optional[Iterable[int]] = None,
    count: Optional[int] = 1,
) -> Hook:
    """Like :func:`stall_write_to` but for reads."""
    affected = None if pids is None else frozenset(pids)
    remaining = [count]

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        if not isinstance(ctx.op, Read):
            return None
        if affected is not None and ctx.pid not in affected:
            return None
        if not _matches(ctx.op.register.name, target):
            return None
        if remaining[0] is not None:
            if remaining[0] <= 0:
                return None
            remaining[0] -= 1
        return max(nominal, duration)

    return hook


def stall_step_index(pid: int, step_index: int, duration: float) -> Hook:
    """Stretch exactly the ``step_index``-th shared step of ``pid``."""

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        if ctx.pid == pid and ctx.step_index == step_index:
            return max(nominal, duration)
        return None

    return hook


def slow_after(
    pids: Sequence[int], start: float, factor: float
) -> Hook:
    """Permanently slow the given processes from ``start`` onwards.

    Unlike a :class:`~repro.sim.failures.TimingFailureWindow`, this never
    ends — it models an environment that stays asynchronous, which is how
    Theorem 3.2's non-convergence adversary keeps contention alive.
    """
    if factor < 1.0:
        raise ValueError(f"factor must be >= 1, got {factor}")
    affected = frozenset(pids)

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        if ctx.pid in affected and ctx.now >= start:
            return nominal * factor
        return None

    return hook


def register_leaf(name: Hashable) -> Hashable:
    """The human-level register name inside namespaced/array names.

    Our conventions produce ``(namespace, "decide")`` for plain registers
    and ``((namespace, "x"), r, v)`` for array cells; this returns the
    ``"decide"`` / ``"x"`` leaf in either case (and the name itself for
    flat names).
    """
    if isinstance(name, tuple) and name:
        # Plain register: (namespace, "leaf") — the leaf is the trailing
        # string.  Array cell: ((namespace, "leaf"), idx...) — indices are
        # not strings, so the leaf is the base tuple's trailing string.
        if isinstance(name[-1], str):
            return name[-1]
        head = name[0]
        if isinstance(head, tuple) and head and isinstance(head[-1], str):
            return head[-1]
    return name


def round_conflict_hook(delta: float, slow_pid: int = 1, fast_pid: int = 0) -> Hook:
    """The worst legal schedule for round-based register consensus.

    All durations stay within ``Δ`` — *no timing failures* — yet every
    round of an Algorithm-1-shaped protocol (registers ``x``/``y``/
    ``decide``) keeps the conflict alive for as long as the protocol's
    delay statement is shorter than ``Δ``:

    * every write to an ``x`` flag takes ``Δ`` (keeps the two processes'
      rounds aligned so neither laps the other into an uncontested round);
    * the slow process's writes to ``y`` take ``Δ`` (its round proposal
      lands only after the fast process's post-delay read — unless that
      delay was a full ``Δ``);
    * the fast process's reads of ``decide`` take ``Δ`` (its per-round
      compensation for the slow process's late ``y`` write), and the slow
      process's *first* ``decide`` read also takes ``Δ`` (round-1 phase
      alignment).

    Against this schedule, Algorithm 1 with ``delay(Δ)`` decides in round
    2, while any estimate below ``Δ`` loses every round — the sharp
    threshold behind experiments E10 and E11 and the lower bound of
    Alur–Attiya–Taubenfeld for the unknown-bound model.
    """
    first_decide = {slow_pid: True}

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        leaf = register_leaf(ctx.op.register.name)
        if isinstance(ctx.op, Write):
            if leaf == "x" or (leaf == "y" and ctx.pid == slow_pid):
                return delta
        elif isinstance(ctx.op, Read) and leaf == "decide":
            if ctx.pid == fast_pid:
                return delta
            if ctx.pid == slow_pid and first_decide[slow_pid]:
                first_decide[slow_pid] = False
                return delta
        return None

    return hook


def compose_hooks(*hooks: Hook) -> Hook:
    """Run hooks in order; the first override wins."""

    def hook(ctx: StepContext, nominal: float) -> Optional[float]:
        for h in hooks:
            override = h(ctx, nominal)
            if override is not None:
                return override
        return None

    return hook
