"""The eight workloads, by name.

Each runner is imported when asked for, so a run's ``setup_s`` pays for
the imports of its own workload only.
"""

from __future__ import annotations

from typing import Any, Callable


def runner(name: str) -> Callable[[Any, Any], None]:
    """The ``run(ctx, out)`` function of workload ``name``."""
    if name.startswith("live_"):
        from registry import WORKLOAD
        from workloads import live

        return live.runner(name, WORKLOAD[name].primary)
    if name.startswith("sim_"):
        from workloads import sims

        return {"sim_registers": sims.run_sim_registers, "sim_net": sims.run_sim_net}[name]
    from workloads import checking

    return {"campaign": checking.run_campaign, "explore": checking.run_explore}[name]
