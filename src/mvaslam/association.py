"""Scalable loopy-BP probabilistic data association.

One instance solves the association problem of a single anchor at a single
time step: feature-oriented association variables (one per candidate path,
including the anchor's own LOS row) against measurement-oriented ones.
Joint events are valid when the two descriptions agree (a feature claims a
measurement iff that measurement claims the feature); message passing on
the consistency factors yields approximate marginal messages without
enumerating joint events.

Message tables are row-normalized after every sweep; outputs are defined up
to per-variable scale, which all downstream uses are invariant to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonFinite

_TINY = 1e-300


@dataclass
class AssociationOutput:
    """Marginal messages: ``eta`` per path row, ``sigma_out`` per measurement."""

    eta: np.ndarray        # (K, M+1), rows sum to 1
    sigma_out: np.ndarray  # (M, K+1), rows sum to 1
    iterations_used: int


def run_association(beta, xi_new, max_iters: int = 20, tol: float = 1e-6) -> AssociationOutput:
    """Iterate the two message families to a fixed point, or for ``max_iters`` (>= 1) sweeps.

    ``beta``: (K, M+1), row per candidate path, column 0 for "no
    measurement", column m for measurement m.  ``xi_new``: (M,), each
    measurement's evidence for "not from any tracked path" (new feature or
    clutter).  Its evidence for every tracked path is 1, so this column is
    all of the (M, K+1) measurement table the model varies.

    Each message has only two distinct values ("claims this partner" vs.
    "anything else"), so a sweep reduces to ratio updates with a
    sum-minus-self trick: O(K*M) per sweep.
    """
    beta = np.asarray(beta, dtype=float)
    xi_new = np.asarray(xi_new, dtype=float)
    if beta.ndim != 2 or xi_new.ndim != 1:
        raise ValueError("beta must be a 2-D table and xi_new a vector")
    n_paths, m1 = beta.shape
    n_meas = m1 - 1
    if xi_new.shape != (n_meas,):
        raise ValueError(f"inconsistent shapes beta {beta.shape}, xi_new {xi_new.shape}")
    if max_iters < 1:
        raise ValueError(f"max_iters={max_iters} must be at least 1: "
                         "association without an iteration leaves no marginals")
    if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(xi_new))):
        raise NonFinite("association inputs must be finite")
    if np.any(beta < 0) or np.any(xi_new < 0):
        raise ValueError("association inputs must be non-negative")
    if n_paths and np.any(beta[:, 0] <= 0):
        raise ValueError("beta[:, 0] must be strictly positive")

    if n_meas == 0 or n_paths == 0:
        eta = np.ones((n_paths, n_meas + 1)) / (n_meas + 1)
        sigma_out = np.ones((n_meas, n_paths + 1)) / (n_paths + 1)
        return AssociationOutput(eta=eta, sigma_out=sigma_out, iterations_used=0)

    beta_miss = beta[:, 0][:, None]        # (K, 1)
    beta_hit = beta[:, 1:]                 # (K, M)

    # z[k, m]: path-to-measurement ratio; v[k, m]: measurement-to-path ratio
    row_sum = beta_miss + beta_hit.sum(axis=1, keepdims=True)
    z = beta_hit / np.maximum(row_sum - beta_hit, _TINY)

    # A row without evidence for any measurement keeps its zero z, so the
    # sweeps update only the live rows; t_m still sums the whole table, in
    # the order the full sweep sums it, so every message keeps its bits.
    live = np.flatnonzero(beta_hit.any(axis=1))
    miss, hit, z_live = beta_miss[live], beta_hit[live], z[live]
    for iterations in range(1, max_iters + 1):
        t_m = xi_new + z.sum(axis=0, keepdims=True)                     # (1, M)
        v = 1.0 / np.maximum(t_m - z_live, _TINY)
        u_k = miss + (hit * v).sum(axis=1, keepdims=True)               # (K', 1)
        z_next = hit / np.maximum(u_k - hit * v, _TINY)
        delta = np.max(np.abs(z_next - z_live) / np.maximum(np.abs(z_live), 1e-12), initial=0.0)
        z_live = z[live] = z_next
        if delta < tol:
            break
    eta = np.ones((n_paths, n_meas + 1))
    eta[:, 1:] = 1.0 / np.maximum(t_m - z, _TINY)        # the rows without evidence
    eta[live, 1:] = v

    sigma_out = np.concatenate([np.ones((n_meas, 1)), z.T], axis=1)
    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(sigma_out))):
        raise NonFinite("association messages overflowed")
    eta /= eta.sum(axis=1, keepdims=True)
    sigma_out /= sigma_out.sum(axis=1, keepdims=True)
    return AssociationOutput(eta=eta, sigma_out=sigma_out, iterations_used=iterations)
