"""Tensor-product quadrature on axis-aligned boxes."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import BoxDomain, _count, _product

__all__ = ["QuadratureScheme"]


@lru_cache(maxsize=None)
def _gauss_reference(order: int):
    # Nodes and weights of the Gauss-Legendre rule on [-1, 1].
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureScheme:
    """Composite tensor-product rule: ``subdivisions`` equal cells per axis,
    each carrying a Gauss-Legendre rule of the given ``order``.  Order 1
    is the composite midpoint rule: one node at each cell's center,
    weighted by the cell's length.

    Weights are positive and sum to the cell volume cell by cell, so the
    rule integrates constants exactly at any order.
    """

    order: int = 12
    subdivisions: int = 4

    def __post_init__(self):
        for name in ("order", "subdivisions"):
            _count(getattr(self, name), name)

    def _rules(self, lower, upper):
        """Composite 1-d rules on every axis (lower[j], upper[j]) at once:
        (nodes, weights), each of shape (order * subdivisions, dim).

        The cell edges are ``np.linspace``'s, bit for bit, in one
        expression for all axes: the step times 0..s plus lower, then the
        last edge set to upper.
        """
        s = self.subdivisions
        edges = np.arange(s + 1)[:, None] * ((upper - lower) / s) + lower
        edges[-1] = upper
        ref_nodes, ref_weights = _gauss_reference(self.order)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges, axis=0)
        nodes = centers[:, None] + half[:, None] * ref_nodes[:, None]
        weights = half[:, None] * ref_weights[:, None]
        return nodes.reshape(-1, len(lower)), weights.reshape(-1, len(lower))

    def axis_rule(self, lower: float, upper: float):
        """Composite 1-d rule on (lower, upper): returns (nodes, weights)."""
        if not lower < upper:
            raise ValueError(f"need lower < upper, got ({lower}, {upper})")
        nodes, weights = self._rules(np.array([lower], dtype=float), np.array([upper], dtype=float))
        return nodes[:, 0], weights[:, 0]

    def box_rule(self, box: BoxDomain):
        """Tensor-product rule over a box: nodes of shape (N, dim), weights (N,)."""
        nodes, axis_weights = self._rules(box.lower, box.upper)
        weights = axis_weights[:, 0]
        for j in range(1, box.dim):
            weights = np.multiply.outer(weights, axis_weights[:, j]).ravel()
        return _product(nodes.T), weights
