"""Measurement, statistics, table rendering and the experiment drivers."""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "metrics": (
        "decision_times_in_deltas",
        "max_decision_time_in_deltas",
        "rounds_used",
        "rmr_count",
        "rmr_per_cs_entry",
        "delay_count",
        "solo_steps_to_decision",
        "throughput",
        "handover_times",
        "registers_touched_under",
    ),
    "stats": ("Summary", "summarize", "percentile", "geometric_mean", "speedup"),
    "tables": ("ExperimentTable", "format_cell"),
    "timeline": ("render_timeline", "lane_for"),
})
