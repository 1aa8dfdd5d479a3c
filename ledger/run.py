"""The layered performance ledger: one command, every metric by name.

Two ways in, one measuring path (:func:`measure`):

``python ledger/run.py [--workload W] [--seed S] [--reps N] [--traced]``
    the run table — every workload × ``N`` repetitions, each in a fresh
    subprocess, each persisted as one JSON file under
    ``ledger/results/<run-id>/``, then the aggregate (median and
    quartiles, never best-of-N).  ``--traced`` adds one traced repetition
    per workload for the per-layer metrics; wrappers and the tracer are
    never installed during end-to-end timing.  ``--smoke`` runs every
    workload for about a second to check the plumbing.

``python ledger/run.py --workload W --seed S --seconds T --trace 0|1``
    the benchmark driver's protocol — one run, whose last line of output
    is the JSON object ``{"correct", "attempted", "failed", "metrics"}``.

Exit code 0 when every workload's outputs were correct, 1 when a check
failed (the result is still printed, with ``failed`` > 0), 2 when there
is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402  (after the path line above)
import registry  # noqa: E402

WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
# The driver allows a run 180 s; a wedged worker is killed well before.
WORKER_TIMEOUT = 150.0


class RunError(RuntimeError):
    """A worker subprocess died or printed no result."""


def spawn(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    smoke: bool = False,
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one worker subprocess to completion; return its document."""
    kernel_before = harness.calibrate()
    command = [
        sys.executable, str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--spawned-at", repr(time.time()),
    ]
    for flag, on in (("--traced", traced), ("--smoke", smoke),
                     ("--setup-only", setup_only)):
        if on:
            command.append(flag)
    # A per-process hash seed lays out every str-keyed dict and set
    # differently, which moves timings by a few percent between runs.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=WORKER_TIMEOUT,
            env=env,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"{workload}: worker exceeded {WORKER_TIMEOUT:.0f} s") from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunError(
            f"{workload}: worker exited {done.returncode}\n{done.stderr.strip()}"
        )
    document = json.loads(lines[-1])
    document["stderr"] = done.stderr.strip()[-2000:]
    document["setup_norm_s"] = normalised_setup(document, kernel_before)
    return document


def normalised_setup(document: Dict[str, Any], kernel_before: float) -> Optional[float]:
    """Set-up time with its processor share scaled to the reference host speed.

    Set-up is part waiting (the live service's warm-up refill is paced by
    Δ) and part interpreter work (start-up and imports), and only the
    second follows the host's speed; see ``harness.calibrate``.
    """
    if document["setup_s"] is None:
        return None
    around = (kernel_before + document["setup_kernel_s"]) / 2.0
    cpu = min(document["setup_cpu_s"], document["setup_s"])
    return (document["setup_s"] - cpu) + cpu * harness.CALIBRATION_REFERENCE_S / around


def measure(
    workload: str, seed: int, seconds: float, traced: bool, smoke: bool = False
) -> Dict[str, Any]:
    """One run: set the workload up several times, measure it once.

    Returns the worker's document with ``e2e`` completed by the metrics
    every workload has: ``setup_s`` (median over ``SETUP_SAMPLES``
    subprocess starts), ``peak_rss_mb`` and ``failed_share``.
    """
    setups: List[float] = []
    # A smoke run checks the plumbing; it sets up once.
    for _ in range(0 if smoke else registry.SETUP_SAMPLES - 1):
        setups.append(spawn(workload, seed, seconds, smoke=smoke,
                            setup_only=True)["setup_norm_s"])
    document = spawn(workload, seed, seconds, traced=traced, smoke=smoke)
    if document["setup_norm_s"] is not None:
        setups.append(document["setup_norm_s"])
    if not document["attempted"]:
        document["attempted"], document["failed"] = 1, 1
        document["errors"].append("the workload attempted nothing")
    document["setup_samples"] = setups
    e2e = {
        name: value for name, value in document["e2e"].items()
        if registry.E2E[name].applies(workload)
    }
    e2e["setup_s"] = statistics.median(setups)
    e2e["peak_rss_mb"] = document["peak_rss_mb"]
    e2e["failed_share"] = document["failed"] / document["attempted"]
    document["e2e"] = e2e
    return document


def complete_layers(document: Dict[str, Any]) -> Dict[str, float]:
    """Every declared per-layer metric; a layer a workload never enters
    did no work and took no time, so it reads 0."""
    layers = document["layers"]
    return {m.name: float(layers.get(m.name, 0.0)) for m in registry.PER_LAYER}


# ---------------------------------------------------------------------------
# The driver's protocol: one run, one JSON line.
# ---------------------------------------------------------------------------


def driver_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    document = measure(workload, seed, seconds, traced=trace)
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace:
        values = complete_layers(document)
        for metric in registry.PER_LAYER:
            metrics[metric.name] = {"value": values[metric.name], "unit": metric.unit}
    else:
        for metric in registry.DRIVER_E2E:
            if metric.applies(workload) and metric.name in document["e2e"]:
                value = document["e2e"][metric.name]
            else:
                value = registry.placeholder(metric, document["window_s"] or seconds)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
    print_run(document, traced=trace)
    for error in document["errors"]:
        print(f"FAILED CHECK: {error}")
    print(json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }))
    return 0 if document["failed"] == 0 else 1


def print_run(document: Dict[str, Any], traced: bool) -> None:
    workload = document["workload"]
    print(f"{workload} seed={document['seed']} seconds={document['seconds']:g} "
          f"{'traced' if traced else 'untraced'}: attempted "
          f"{document['attempted']}, failed {document['failed']}")
    if traced:
        for name, value in complete_layers(document).items():
            print(f"  {name:<28} {value:>16.6g} {registry.LAYER[name].unit}")
    else:
        for name, value in document["e2e"].items():
            print(f"  {name:<28} {value:>16.6g} {registry.E2E[name].unit}")


# ---------------------------------------------------------------------------
# The run table.
# ---------------------------------------------------------------------------


def quartiles(values: Sequence[float]) -> Dict[str, Any]:
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
        "values": list(values),
    }


def run_table(
    workloads: Sequence[str],
    seed: int,
    reps: int,
    seconds: float,
    traced: bool,
    smoke: bool,
    out_dir: Path,
) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    aggregate: Dict[str, Any] = {
        "seed": seed, "reps": reps, "seconds": seconds, "smoke": smoke,
        "workloads": {},
    }
    bad = 0
    for workload in workloads:
        documents = []
        for rep in range(reps):
            document = measure(workload, seed, seconds, traced=False, smoke=smoke)
            (out_dir / f"{workload}.rep{rep}.json").write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n"
            )
            documents.append(document)
            print_run(document, traced=False)
        row: Dict[str, Any] = {
            "end_to_end": {
                name: quartiles([d["e2e"][name] for d in documents])
                for name in documents[0]["e2e"]
            },
            "attempted": sum(d["attempted"] for d in documents),
            "failed": sum(d["failed"] for d in documents),
            "errors": [e for d in documents for e in d["errors"]],
            "counts": documents[0]["counts"],
        }
        if traced:
            document = measure(workload, seed, seconds, traced=True, smoke=smoke)
            (out_dir / f"{workload}.traced.json").write_text(
                json.dumps(document, indent=1, sort_keys=True) + "\n"
            )
            documents.append(document)
            print_run(document, traced=True)
            row["per_layer"] = complete_layers(document)
            row["attempted"] += document["attempted"]
            row["failed"] += document["failed"]
            row["errors"] += document["errors"]
        if registry.WORKLOAD[workload].deterministic:
            # One seed, one execution: every repetition, traced or not,
            # must have counted exactly the same work.
            for index, document in enumerate(documents):
                if document["counts"] != row["counts"]:
                    row["failed"] += 1
                    row["errors"].append(
                        f"repetition {index} counted different work than "
                        f"repetition 0 on the same seed"
                    )
        bad += row["failed"]
        aggregate["workloads"][workload] = row
    (out_dir / "aggregate.json").write_text(
        json.dumps(aggregate, indent=1, sort_keys=True) + "\n"
    )
    print_table(aggregate)
    print(f"results: {out_dir}")
    return 0 if bad == 0 else 1


def print_table(aggregate: Dict[str, Any]) -> None:
    print(f"\n{'workload':<14} {'metric':<18} {'unit':<6} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8}  n")
    for workload, row in aggregate["workloads"].items():
        for name, stat in row["end_to_end"].items():
            median = stat["median"]
            spread = (stat["q3"] - stat["q1"]) / median if median else 0.0
            print(f"{workload:<14} {name:<18} {registry.E2E[name].unit:<6} "
                  f"{median:>12.6g} {stat['q1']:>12.6g} {stat['q3']:>12.6g} "
                  f"{100 * spread:>7.2f}%  {stat['n']}")
        for error in row["errors"]:
            print(f"{workload:<14} FAILED CHECK: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append",
                        choices=registry.WORKLOAD_NAMES,
                        help="run only this workload (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds every generator of every workload")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {registry.RUN_SECONDS})")
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced repetitions per workload (default 5)")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced repetition per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="about one second per workload, small inputs")
    parser.add_argument("--out", type=Path, default=None,
                        help="results directory (default ledger/results/<run-id>)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver protocol: one run, last line is the JSON result")
    args = parser.parse_args(argv)

    if not (registry.ROOT / "src" / "repro").is_dir():
        print(f"ledger: no program to measure under {registry.ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(registry.RUN_SECONDS)
    if seconds <= 0:
        parser.error(f"--seconds must be positive, got {seconds}")
    try:
        if args.trace is not None:
            if not args.workload or len(args.workload) != 1:
                parser.error("--trace needs exactly one --workload")
            return driver_run(args.workload[0], args.seed, seconds, bool(args.trace))
        out_dir = args.out or RESULTS / (
            time.strftime("%Y%m%dT%H%M%S") + f"-seed{args.seed}"
        )
        return run_table(
            args.workload or registry.WORKLOAD_NAMES, args.seed, args.reps,
            seconds, args.traced, args.smoke, out_dir,
        )
    except RunError as exc:
        print(f"ledger: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
