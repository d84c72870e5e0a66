"""Synthetic measurement generation: a pure random draw from traced truth.

A measurement is a (distance, angle-of-arrival) pair produced by one
propagation path plus Gaussian noise, or by clutter.  Each available path
is detected with its class's detection probability; clutter counts are
Poisson with uniform density over the measurement space.  Which paths are
available, and their virtual anchors, come from the true geometry, traced
once per experiment (:func:`mvaslam.experiment.available_path_keys`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import path_distance_angle, wrap_angle

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PathNoise:
    """Noise standard deviations of one path class."""

    sigma_d: float
    sigma_phi: float

    def __post_init__(self):
        if not (0.0 < self.sigma_d < math.inf and self.sigma_phi > 0):
            raise ValueError("noise standard deviations must be positive and finite")
        if self.sigma_phi >= math.pi / 4:
            raise ValueError("sigma_phi must stay below pi/4 for the wrapped-Gaussian model")


@dataclass(frozen=True)
class NoiseProfile:
    """Per-class noise levels for LOS, single-bounce, and double-bounce paths."""

    los: PathNoise
    single: PathNoise
    double: PathNoise


@dataclass(frozen=True)
class ClutterModel:
    """Poisson clutter: mean count ``mu_fp``, uniform on [0, d_max] x [-pi, pi)."""

    mu_fp: float
    d_max: float

    def __post_init__(self):
        if not 0.0 <= self.mu_fp < math.inf:
            raise ValueError(f"mu_fp={self.mu_fp} must be non-negative and finite")
        if not 0.0 < self.d_max < math.inf:
            raise ValueError(f"d_max={self.d_max} must be positive and finite")

    @property
    def density(self) -> float:
        """Constant clutter density 1 / (d_max * 2 pi)."""
        return 1.0 / (self.d_max * TWO_PI)


def generate_batch(agent_pos, heading, blocks: Sequence[tuple[str, np.ndarray]], va, available,
                   p_detect, profile: NoiseProfile, clutter: ClutterModel,
                   rng: np.random.Generator) -> np.ndarray:
    """Draw one anchor's measurement batch from its traced truth at one agent state.

    ``va`` (K, 2) holds the true virtual anchors of the candidate paths,
    one per row of the ``(kind, members)`` ``blocks``, which do not depend
    on the agent position, and ``available`` (K,) their availability at
    ``agent_pos``: an anchor's VAs and one waypoint's availability row of
    the truth the experiment traces once.  Nothing is traced here.  Every available path
    is detected with its kind's probability and measured with Gaussian
    noise; Poisson clutter is appended; the batch order is randomly
    permuted.  ``p_detect(kind)`` gives a path kind's ("los" / "single" /
    "double") base detection probability, as ``HyperParams.p_detect`` does;
    noise levels come from the kind's entry in ``profile``.  Returns the
    batch as an (M, 2) array of (distance, angle) rows.
    """
    kinds = [kind for kind, members in blocks for _ in members]
    found = np.flatnonzero(available)
    dist, angle = path_distance_angle(agent_pos, heading, va[found])
    z_d, z_phi = [], []
    for k, d, phi in zip(found.tolist(), dist.tolist(), angle.tolist()):
        if rng.random() >= p_detect(kinds[k]):
            continue
        noise = getattr(profile, kinds[k])
        z_d.append(d + noise.sigma_d * rng.standard_normal())
        z_phi.append(phi + noise.sigma_phi * rng.standard_normal())
    n_found = len(z_d)

    for _ in range(rng.poisson(clutter.mu_fp)):
        z_d.append(clutter.d_max * rng.random())
        z_phi.append(TWO_PI * rng.random() - math.pi)

    z = np.array((z_d, z_phi)).T
    if n_found:
        z[:n_found, 1] = wrap_angle(z[:n_found, 1])    # elementwise: one call, the same bits
    return z[rng.permutation(len(z))]
