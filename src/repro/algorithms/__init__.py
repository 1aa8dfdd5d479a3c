"""Baseline algorithms from the literature the paper builds on or cites.

Mutual exclusion: Fischer (Algorithm 2), Lamport's fast lock, the bakery,
the Black-White bakery, Peterson's 2-process and filter locks, the
tournament tree, and the Bar-David starvation-freedom transformation.

Consensus: the one-shot fast timing-based algorithm (Alur–Taubenfeld
style, *not* failure-resilient) and the unknown-bound time-adaptive
algorithm (Alur–Attiya–Taubenfeld style).

Robustness beyond timing: the Dubois–Guerraoui speculative
self-stabilizing token mutex (survives arbitrary transient register
corruption) and Golab's recoverable consensus (survives crash-restart
with persistent registers).
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "base": ("MutexAlgorithm", "MutexProperties", "mutex_session", "DurationFn"),
    "fischer": ("FischerLock", "FREE"),
    "lamport_fast": ("LamportFastLock",),
    "bakery": ("BakeryLock",),
    "black_white_bakery": ("BlackWhiteBakeryLock", "BLACK", "WHITE"),
    "peterson": ("PetersonTwoProcess", "FilterLock"),
    "tournament": ("TournamentLock",),
    "bar_david": ("BarDavidLock",),
    "at_consensus": ("AtConsensus",),
    "aat_consensus": ("AatConsensus",),
    "rmw": ("TicketLock", "TestAndSetLock", "CasConsensus"),
    "dg_mutex": (
        "DGTokenMutex",
        "stabilizing_session",
        "stabilizing_ring",
        "speculative_bound",
    ),
    "recoverable": ("RecoverableConsensus",),
})
