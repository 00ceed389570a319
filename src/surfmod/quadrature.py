"""Tensor-product quadrature on axis-aligned boxes."""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .family import BoxDomain

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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

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
        axis_nodes = []
        axis_weights = []
        for i in range(box.dim):
            nodes, weights = self.axis_rule(box.lower[i], box.upper[i])
            axis_nodes.append(nodes)
            axis_weights.append(weights)
        node_mesh = np.meshgrid(*axis_nodes, indexing="ij")
        weight_mesh = np.meshgrid(*axis_weights, indexing="ij")
        nodes = np.stack([g.ravel() for g in node_mesh], axis=-1)
        weights = np.ones(nodes.shape[0])
        for g in weight_mesh:
            weights = weights * g.ravel()
        return nodes, weights
