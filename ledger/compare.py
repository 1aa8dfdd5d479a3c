"""Compare two ledger run sets: ``python ledger/compare.py A B``.

``A`` is the parent's run set and ``B`` the change's — each a results
directory written by ``ledger/run.py`` (or its ``aggregate.json``).  One
row per workload × end-to-end metric: both medians and quartiles, how
much worse ``B`` reads as a share of ``A``'s median, the metric's bound
and a verdict:

``regressed``   worse than ``A`` by more than the bound
``unresolved``  ``A``'s own inter-quartile spread exceeds the bound, so
                the pair cannot show "unchanged" (unless every run of
                ``B`` beats every run of ``A``)
``improved``    better than ``A`` by more than ``A``'s own spread
``unchanged``   anything else

Exit code 1 on any regression, on a higher ``failed_share``, or when a
deterministic workload counted different work on the same seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import registry  # noqa: E402


def load(path: str) -> Dict[str, Any]:
    target = Path(path)
    if target.is_dir():
        target = target / "aggregate.json"
    return json.loads(target.read_text())


def worse_by(metric: registry.EndToEnd, a: float, b: float) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a`` (< 0: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if metric.better == "lower" else -change


def verdict(metric: registry.EndToEnd, a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[str, float]:
    change = worse_by(metric, a["median"], b["median"])
    spread = (a["q3"] - a["q1"]) / abs(a["median"]) if a["median"] else 0.0
    if metric.better == "lower":
        clear_win = max(b["values"]) < min(a["values"])
    else:
        clear_win = min(b["values"]) > max(a["values"])
    if spread > metric.bound and metric.bound > 0:
        return ("improved" if clear_win else "unresolved"), change
    if change > metric.bound:
        return "regressed", change
    if change < 0 and -change > spread:
        return "improved", change
    return "unchanged", change


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Tuple[List[str], int]:
    lines = [
        f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>34} "
        f"{'B median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict"
    ]
    bad = 0
    for workload in registry.WORKLOAD_NAMES:
        row_a = a["workloads"].get(workload)
        row_b = b["workloads"].get(workload)
        if row_a is None or row_b is None:
            continue
        for metric in registry.END_TO_END:
            stat_a = row_a["end_to_end"].get(metric.name)
            stat_b = row_b["end_to_end"].get(metric.name)
            if stat_a is None or stat_b is None:
                continue
            if metric.name == "failed_share":
                # No bound: any increase is a regression.
                word = "regressed" if stat_b["median"] > stat_a["median"] else "unchanged"
                change = stat_b["median"] - stat_a["median"]
            else:
                word, change = verdict(metric, stat_a, stat_b)
            bad += word == "regressed"
            lines.append(
                f"{workload:<14} {metric.name:<18} {_cell(stat_a):>34} "
                f"{_cell(stat_b):>34} {100 * change:>8.2f}% "
                f"{100 * metric.bound:>5.0f}%  {word}"
            )
        if (
            registry.WORKLOAD[workload].deterministic
            and a.get("seed") == b.get("seed")
            and a.get("smoke") == b.get("smoke")
        ):
            # One seed, one execution: the wrapper-free counts and the
            # traced repetition's exact (`=`) per-layer counts must agree.
            drift = _differing(row_a["counts"], row_b["counts"])
            layers_a, layers_b = row_a.get("per_layer"), row_b.get("per_layer")
            if layers_a and layers_b:
                exact = [m.name for m in registry.PER_LAYER if m.exact]
                drift += _differing(
                    {k: layers_a.get(k) for k in exact},
                    {k: layers_b.get(k) for k in exact},
                )
            if drift:
                bad += 1
                lines.append(f"{workload:<14} exact counts differ on seed "
                             f"{a['seed']}: " + ", ".join(drift[:8]))
    return lines, bad


def _differing(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def _cell(stat: Dict[str, Any]) -> str:
    return f"{stat['median']:.5g} [{stat['q1']:.5g}, {stat['q3']:.5g}]"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    lines, bad = compare(load(argv[0]), load(argv[1]))
    print("\n".join(lines))
    print(f"{bad} regression(s)" if bad else "no regression")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
