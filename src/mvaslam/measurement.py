"""Synthetic measurement generation and likelihood evaluation.

A measurement is a (distance, angle-of-arrival) pair produced by one
propagation path plus Gaussian noise, or by clutter.  Each available path
is detected with its class's detection probability; clutter counts are
Poisson with uniform density over the measurement space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import OutOfSupport
from .geometry import Surface, double_bounce_va, mva_to_va, path_distance_angle, wrap_angle
from .raytrace import Environment, PathClass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Measurement:
    """One (distance, angle-of-arrival) pair."""

    z_d: float
    z_phi: float


@dataclass(frozen=True)
class PathNoise:
    """Noise standard deviations of one path class."""

    sigma_d: float
    sigma_phi: float

    def __post_init__(self):
        if not (self.sigma_d > 0 and self.sigma_phi > 0):
            raise ValueError("noise standard deviations must be strictly positive")
        if self.sigma_phi >= math.pi / 4:
            raise ValueError("sigma_phi must stay below pi/4 for the wrapped-Gaussian model")


@dataclass(frozen=True)
class NoiseProfile:
    """Per-class noise levels for LOS, single-bounce, and double-bounce paths."""

    los: PathNoise
    single: PathNoise
    double: PathNoise

    def for_path(self, path: PathClass) -> PathNoise:
        return getattr(self, path.kind)


@dataclass(frozen=True)
class ClutterModel:
    """Poisson clutter: mean count ``mu_fp``, uniform on [0, d_max] x [-pi, pi)."""

    mu_fp: float
    d_max: float

    def __post_init__(self):
        if self.mu_fp < 0:
            raise ValueError("mu_fp must be non-negative")
        if self.d_max <= 0:
            raise ValueError("d_max must be positive")

    @property
    def density(self) -> float:
        """Constant clutter density 1 / (d_max * 2 pi)."""
        return 1.0 / (self.d_max * TWO_PI)


def fp_density(z: Measurement, clutter: ClutterModel) -> float:
    """Clutter density at ``z``; raises OutOfSupport outside [0, d_max]."""
    if not 0.0 <= z.z_d <= clutter.d_max:
        raise OutOfSupport(f"distance {z.z_d} outside [0, {clutter.d_max}]")
    return clutter.density


def gaussian_pdf(x, mu, sigma):
    """Scalar/array Gaussian density."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - mu) / sigma) ** 2) / (np.sqrt(TWO_PI) * sigma)


def predicted_measurement(agent_pos, heading, path: PathClass, pa,
                          mva_s=None, mva_s2=None, strict: bool = True):
    """Noise-free (distance, angle) of one path at the given agent state."""
    if path.kind == "los":
        va = np.asarray(pa, dtype=float)
    elif path.kind == "single":
        va = mva_to_va(mva_s, pa, strict=strict)
    else:
        va = double_bounce_va(mva_s, mva_s2, pa, strict=strict)
    return path_distance_angle(agent_pos, heading, va, strict=strict)


def likelihood(z: Measurement, agent_pos, heading, path: PathClass, pa,
               mva_s=None, mva_s2=None, profile: NoiseProfile = None,
               sigma_d: float | None = None, sigma_phi: float | None = None) -> float:
    """Measurement likelihood of ``z`` under one path hypothesis.

    Gaussian in distance and in the wrapped angle difference.  Noise levels
    default to the path class's entry in ``profile``; per-measurement values
    override when given.
    """
    if sigma_d is None or sigma_phi is None:
        noise = profile.for_path(path)
        sigma_d = noise.sigma_d if sigma_d is None else sigma_d
        sigma_phi = noise.sigma_phi if sigma_phi is None else sigma_phi
    d, phi = predicted_measurement(agent_pos, heading, path, pa, mva_s, mva_s2)
    return float(gaussian_pdf(z.z_d, d, sigma_d) * gaussian_pdf(wrap_angle(z.z_phi - phi), 0.0, sigma_phi))


@dataclass
class MeasurementBatch:
    """Measurements of one anchor at one time step, in randomized order."""

    z: np.ndarray          # (M, 2): columns z_d, z_phi

    def __len__(self) -> int:
        return self.z.shape[0]


def enumerate_paths(n_surfaces: int, include_double: bool = True) -> list[PathClass]:
    """All candidate paths: LOS, one per surface, and ordered surface pairs."""
    paths = [PathClass()]
    paths += [PathClass(s=s) for s in range(n_surfaces)]
    if include_double:
        paths += [PathClass(s=s, s2=s2)
                  for s in range(n_surfaces) for s2 in range(n_surfaces) if s2 != s]
    return paths


def generate_batch(agent_pos, heading, pa, surfaces: Sequence[Surface], env: Environment,
                   p_detect, profile: NoiseProfile, clutter: ClutterModel,
                   rng: np.random.Generator, include_double: bool = True) -> MeasurementBatch:
    """Generate one anchor's measurement batch at one agent state.

    Every candidate path that the ray tracer reports available is detected
    with its class's probability and measured with Gaussian noise; Poisson
    clutter is appended; the batch order is randomly permuted.  ``p_detect``
    maps a path kind ("los" / "single" / "double") to its base detection
    probability; noise levels come from the path class's entry in ``profile``.
    """
    agent_pos = np.asarray(agent_pos, dtype=float)
    paths = enumerate_paths(len(surfaces), include_double=include_double)
    va, available = env.trace_paths(agent_pos, pa, paths, surfaces)
    found = np.flatnonzero(available)
    dist, angle = path_distance_angle(agent_pos, heading, va[found])
    rows = []
    for k, d, phi in zip(found, dist, angle):
        path = paths[k]
        if rng.random() >= p_detect[path.kind]:
            continue
        noise = profile.for_path(path)
        z_d = float(d + noise.sigma_d * rng.standard_normal())
        z_phi = float(wrap_angle(phi + noise.sigma_phi * rng.standard_normal()))
        rows.append((z_d, z_phi))

    n_clutter = rng.poisson(clutter.mu_fp)
    for _ in range(n_clutter):
        z_d = float(clutter.d_max * rng.random())
        z_phi = float(TWO_PI * rng.random() - math.pi)
        rows.append((z_d, z_phi))

    order = rng.permutation(len(rows))
    return MeasurementBatch(z=np.array([rows[i] for i in order], dtype=float).reshape(len(rows), 2))
