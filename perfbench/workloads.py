"""The benchmark's workloads and the scenario configuration each one runs."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str        # bundled scenario name
    setup: int           # 1: single and double bounce, 2: single bounce only
    particles: int
    steps: int           # filter steps per run: a prefix of the scenario trajectory
    runs_at_30s: int     # Monte-Carlo runs per pass at --seconds 30
    via_cli: bool        # drive through cli.main instead of simulate_run
    why: str

    def runs(self, seconds: float) -> int:
        """Monte-Carlo runs per timed pass, in proportion to ``--seconds``.

        The clock does not set the work, so a seed always gives the same
        runs and a faster program does the same work in less time.  The
        counts are sized so that one pass takes 30-40 s on the reference
        machine; fewer runs leave the seed-to-seed spread too wide.
        """
        return max(2, math.floor(self.runs_at_30s * seconds / 30 + 0.5))


WORKLOADS = {w.name: w for w in (
    Workload(
        name="exp1_paper", scenario="exp1_rect_room", setup=1, particles=1000, steps=20,
        runs_at_30s=8, via_cli=False,
        why="paper room, single and double bounces, from the prior through the birth burst: "
            "dense likelihood and double-bounce line_crossing dominate and set peak memory"),
    Workload(
        name="olos_single", scenario="exp3_olos", setup=2, particles=2000, steps=40,
        runs_at_30s=9, via_cli=False,
        why="single bounce only behind a blocker: no pair rows and hop_obstructed carries "
            "the ray tracing, so double-bounce or pair-gating changes must not move it"),
    Workload(
        name="nonrect_mc", scenario="nonrect", setup=1, particles=200, steps=40,
        runs_at_30s=12, via_cli=True,
        why="few particles, many rows, driven through cli.main: per-row Python cost, "
            "generation, metrics and output writing weigh on runs_per_hour"),
)}


def build_config(workload: Workload):
    """The bundled scenario with the workload's setup, particles and steps."""
    from mvaslam.scenario import bundled_scenario

    config = bundled_scenario(workload.scenario)
    double = workload.setup == 1
    params = replace(config.params, n_particles=workload.particles, use_double_bounce=double)
    return replace(config, params=params, double_bounce=double,
                   waypoints=config.waypoints[:workload.steps + 1])
