"""Trace exporters: JSONL (canonical) and Chrome trace-event JSON.

Both formats are **byte-deterministic** for a fixed seed: records are
already canonical plain dicts (see :func:`repro.obs.tracer.canonical`),
serialization sorts keys and uses fixed separators, and no wall-clock
or environment data is ever written.

JSONL is the interchange format — one record per line, in emission
order — consumed back by :func:`read_jsonl` for the metrics and
timeliness stages.  The Chrome trace-event output loads directly into
Perfetto / ``chrome://tracing``: op spans become complete ("X") events
on a ``pid``/``tid`` grid, instantaneous markers become instant ("i")
events, messages become paired flow arrows via ``s``/``f`` events.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

__all__ = [
    "dumps_record",
    "to_jsonl",
    "write_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
]

# Sim time is in Δ-scale float units; Chrome trace timestamps are
# microseconds.  Scaling by 1e6 keeps sub-Δ structure visible at
# Perfetto's default zoom.
_US_PER_TIME_UNIT = 1_000_000.0


def dumps_record(record: Dict[str, Any]) -> str:
    """One record as canonical JSON: sorted keys, no whitespace padding."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def to_jsonl(records: Iterable[Dict[str, Any]]) -> str:
    """The canonical JSONL document: one record per line, trailing newline."""
    lines = [dumps_record(record) for record in records]
    if not lines:
        return ""
    return "\n".join(lines) + "\n"


def write_jsonl(records: Iterable[Dict[str, Any]], path: str) -> int:
    """Write the canonical JSONL document; returns the record count."""
    document = to_jsonl(records)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(document)
    return document.count("\n")


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _us(t: float) -> float:
    value = t * _US_PER_TIME_UNIT
    # Integral timestamps serialize as ints -> stable bytes across
    # platforms; fractional ones keep full float precision.
    return int(value) if float(value).is_integer() else value


def _tid_label(pid: int) -> str:
    return "faults" if pid < 0 else f"p{pid}"


def to_chrome_trace(records: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert a record stream to a Chrome trace-event JSON document.

    One Chrome ``pid`` per traced run (each ``run``/``engine`` marker
    starts a new one; records before any marker form one run named
    "repro"), one ``tid`` per process; messages are drawn as
    flow ("s"/"f") arrow pairs keyed by transport sequence id.
    """
    events: List[Dict[str, Any]] = []
    run_id = 0
    seen_tids: set = set()

    def meta(tid: int, label: str) -> None:
        key = (run_id, tid)
        if key in seen_tids:
            return
        seen_tids.add(key)
        events.append(
            {"ph": "M", "name": "thread_name", "pid": run_id, "tid": tid,
             "args": {"name": label}}
        )

    def tid_of(pid: int) -> int:
        # Chrome tids must be non-negative; the fault injector (pid -1)
        # gets a dedicated high lane.
        tid = 999 if pid < 0 else pid
        meta(tid, _tid_label(pid))
        return tid

    for record in records:
        kind = record.get("kind")
        if kind in ("run", "engine"):
            run_id += 1
            label = record.get("target") or record.get("substrate", "run")
            if "index" in record:
                label = f"{label}#{record['index']}"
            events.append(
                {"ph": "M", "name": "process_name", "pid": run_id, "tid": 0,
                 "args": {"name": str(label)}}
            )
            continue
        if run_id == 0:
            run_id = 1
            events.append(
                {"ph": "M", "name": "process_name", "pid": run_id, "tid": 0,
                 "args": {"name": "repro"}}
            )
        if kind == "op":
            t0, t1 = record["t0"], record["t1"]
            events.append(
                {"ph": "X", "name": f"{record['op']}({record.get('reg')})",
                 "cat": "op", "pid": run_id, "tid": tid_of(record["pid"]),
                 "ts": _us(t0), "dur": _us(max(0.0, t1 - t0)),
                 "args": {"xd": record.get("xd", False)}}
            )
        elif kind in ("label", "crash", "done", "violation"):
            pid = record.get("pid", -1)
            label = record.get("label") or record.get("monitor") or kind
            events.append(
                {"ph": "i", "name": f"{kind}:{label}" if kind != "label" else str(label),
                 "cat": kind, "pid": run_id, "tid": tid_of(pid),
                 "ts": _us(record["t"]), "s": "t"}
            )
        elif kind == "fault":
            events.append(
                {"ph": "i", "name": f"fault({record.get('reg')})",
                 "cat": "fault", "pid": run_id, "tid": tid_of(-1),
                 "ts": _us(record["t"]), "s": "p"}
            )
        elif kind == "send":
            events.append(
                {"ph": "s", "name": "msg", "cat": "msg", "pid": run_id,
                 "tid": tid_of(record["src"]), "ts": _us(record["t"]),
                 "id": record["id"]}
            )
        elif kind == "recv":
            events.append(
                {"ph": "f", "name": "msg", "cat": "msg", "pid": run_id,
                 "tid": tid_of(record["dst"]), "ts": _us(record["t"]),
                 "id": record["id"], "bp": "e"}
            )
        elif kind == "drop":
            events.append(
                {"ph": "i", "name": f"drop {record['src']}->{record['dst']}",
                 "cat": "msg", "pid": run_id, "tid": tid_of(record["src"]),
                 "ts": _us(record["t"]), "s": "t"}
            )
        elif kind == "phase":
            ph = "B" if record["edge"] == "start" else "E"
            events.append(
                {"ph": ph, "name": f"{record['phase']}({record.get('reg')})",
                 "cat": "quorum", "pid": run_id, "tid": tid_of(record["pid"]),
                 "ts": _us(record["t"])}
            )
        elif kind == "window":
            events.append(
                {"ph": "X", "name": f"window:{record['fault']}",
                 "cat": "window", "pid": run_id, "tid": tid_of(-1),
                 "ts": _us(record["start"]),
                 "dur": _us(max(0.0, record["end"] - record["start"])),
                 "args": {"pids": record.get("pids")}}
            )
        # Unknown kinds are skipped: forward compatibility for viewers.
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(records: Iterable[Dict[str, Any]], path: str) -> int:
    document = to_chrome_trace(records)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(document, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")
    return len(document["traceEvents"])
