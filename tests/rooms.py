"""A seeded family of random rooms for the tests.

A room is a polygon of 3-7 reflective walls around a centre: sorted random
angles, each angular gap below 0.8 pi so that the centre lies inside, and a
random radius per corner (one radius for every corner of a convex room,
whose corners then lie on a circle).  The polygon is star-shaped about its
centre, so a point drawn in a random triangle of the fan from the centre,
pulled a tenth of the way back toward the centre, lies inside it and off
its walls.  Up to two blockers join two such points, and the two anchors
and the agent points are drawn the same way.  A seed gives the same room.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from mvaslam.geometry import WallSegment
from mvaslam.raytrace import Environment

MAX_GAP = 0.8 * np.pi        # largest angle between neighbouring corners
MIN_MVA = 1.0                # no wall line within MIN_MVA / 2 m of the origin


class Room(NamedTuple):
    env: Environment
    pas: np.ndarray          # (2, 2) anchors
    agents: np.ndarray       # (n, 2) agent points


def _corners(rng, convex: bool) -> tuple[np.ndarray, np.ndarray]:
    """A room's centre (2,) and its corners (W, 2), in angular order about it."""
    while True:
        n = int(rng.integers(3, 8))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        if np.diff(angles, append=angles[0] + 2.0 * np.pi).max() >= MAX_GAP:
            continue
        radii = np.full(n, rng.uniform(3.0, 8.0)) if convex else rng.uniform(3.0, 8.0, n)
        centre = rng.uniform(-3.0, 3.0, 2)
        corners = centre + radii[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        ends = corners, np.roll(corners, -1, axis=0)
        if all(np.hypot(*WallSegment(a, b).mva) > MIN_MVA for a, b in zip(*ends)):
            return centre, corners


def _inside(rng, centre: np.ndarray, corners: np.ndarray, n: int) -> np.ndarray:
    """``n`` points (n, 2) inside the room of ``corners`` about ``centre``, off its walls."""
    k = rng.integers(len(corners), size=n)
    u, v = rng.random((2, n, 1))
    flip = (u + v) > 1.0                      # fold the unit square onto the triangle
    u, v = np.where(flip, 1.0 - u, u), np.where(flip, 1.0 - v, v)
    fan = u * (corners[k] - centre) + v * (np.roll(corners, -1, axis=0)[k] - centre)
    return centre + 0.9 * fan


def random_room(seed: int, n_agents: int, convex: bool = False) -> Room:
    """The room of ``seed``, with 0-2 blockers, 2 anchors and ``n_agents`` agent points."""
    rng = np.random.default_rng(seed)
    centre, corners = _corners(rng, convex)
    walls = [WallSegment(a, b) for a, b in zip(corners, np.roll(corners, -1, axis=0))]
    blockers = [WallSegment(*_inside(rng, centre, corners, 2))
                for _ in range(int(rng.integers(0, 3)))]
    return Room(Environment(walls, blockers), _inside(rng, centre, corners, 2),
                _inside(rng, centre, corners, n_agents))
