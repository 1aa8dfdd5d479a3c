"""Seed-sharded worker fabric for the heavy campaign workloads.

Every campaign in this repo (``python -m repro.chaos run`` on either
substrate, and :func:`repro.verify.fuzz.fuzz`) is a loop over
independently seeded work items.  This package turns that loop into a
fabric:

* :mod:`~repro.parallel.shard` — split the item range into contiguous
  shards with master-seed-derived, worker-count-independent sub-seeds;
* :mod:`~repro.parallel.pool` — run shards on a spawn-safe
  ``multiprocessing`` pool, or entirely in-process with ``workers=1``
  (no pickling), with per-shard wall/throughput telemetry and loud
  worker-crash surfacing;
* :mod:`~repro.parallel.merge` — deterministically merge shard results
  so ``--workers N`` output is bit-identical to ``--workers 1``.

The determinism contract (sharding may never change *what* a campaign
finds, only how fast) is CI-gated: the ``parallel-determinism`` job
byte-compares ``chaos run`` summary JSON and traces across worker
counts, and any violation found in parallel replays through the
unchanged single-process ``repro.chaos`` pipeline.
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "shard": ("Shard", "derive_subseeds", "make_shards"),
    "pool": ("ShardResult", "WorkerError", "WorkerPool", "run_sharded", "timing_rows"),
    "merge": (
        "RunRecord",
        "merge_counters",
        "merge_fuzz_results",
        "merge_campaign_runs",
    ),
})
