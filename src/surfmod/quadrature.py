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

    def axis_rule(self, lower: float, upper: float):
        """Composite 1-d rule on (lower, upper): returns (nodes, weights)."""
        if not lower < upper:
            raise ValueError(f"need lower < upper, got ({lower}, {upper})")
        edges = np.linspace(lower, upper, self.subdivisions + 1)
        ref_nodes, ref_weights = _gauss_reference(self.order)
        centers = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        nodes = (centers[:, None] + half[:, None] * ref_nodes[None, :]).ravel()
        weights = (half[:, None] * ref_weights[None, :]).ravel()
        return nodes, weights

    def box_rule(self, box: BoxDomain):
        """Tensor-product rule over a box: nodes of shape (N, dim), weights (N,)."""
        rules = [self.axis_rule(lo, hi) for lo, hi in zip(box.lower, box.upper)]
        weights = rules[0][1]
        for _, axis_weights in rules[1:]:
            weights = np.multiply.outer(weights, axis_weights).ravel()
        return _product([nodes for nodes, _ in rules]), weights
