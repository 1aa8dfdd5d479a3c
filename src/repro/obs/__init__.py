"""repro.obs — deterministic structured tracing, metrics, timeliness graphs.

The observability substrate over all three execution substrates: attach
a :class:`Tracer` (explicitly or via :func:`trace_scope`) and the timed
engine, the message fabric, and the chaos/fuzz harnesses emit canonical
span/event records; export them as JSONL or Chrome trace-event JSON;
fold them into metrics; mine per-link delay observations into a
timeliness graph.  ``python -m repro.obs summarize|convert|timeliness``
operates on stored JSONL traces.
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "tracer": ("Tracer", "active_tracer", "canonical", "register_name", "trace_scope"),
    "export": (
        "to_jsonl",
        "write_jsonl",
        "read_jsonl",
        "to_chrome_trace",
        "write_chrome_trace",
    ),
    "metrics": ("Histogram", "compute_metrics", "format_summary"),
    "timeliness": ("delay_observations", "mine_timeliness", "format_timeliness"),
})
