"""Boxes, balls and halfspaces: convex sets with closed-form exact projectors.
Affine sets and points are :class:`mdvkit.numeric.AffineSubspace`."""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError
from .numeric import AffineSubspace, ConvexSet, _is_integer, as_real, as_vector


class Box(ConvexSet):
    """Axis-aligned box ``{lo <= x <= hi}`` (componentwise)."""

    def __init__(self, lo, hi):
        self.lo = as_vector(lo)
        self.hi = as_vector(hi, self.lo.size)
        if np.any(self.lo > self.hi):
            raise ValidationError("box requires lo <= hi componentwise")
        self.dim = self.lo.size

    def _project(self, x):
        return np.minimum(np.maximum(x, self.lo), self.hi)

    def __repr__(self):
        return f"Box(dim={self.dim})"


class Ball(ConvexSet):
    """Euclidean ball of given center and radius."""

    def __init__(self, center, radius):
        self.center = as_vector(center)
        self.radius = as_real(radius, "ball radius", positive=True)
        self.dim = self.center.size

    def _project(self, x):
        d = x - self.center
        if x.ndim == 2:  # rows within the radius are returned as they are
            n = np.maximum(np.linalg.norm(d, axis=1, keepdims=True), self.radius)
            return np.where(n == self.radius, x, self.center + d * (self.radius / n))
        n = math.sqrt(d @ d)  # np.linalg.norm of a 1-d vector, bit for bit
        if n <= self.radius:
            return x.copy()
        return self.center + d * (self.radius / n)

    def __repr__(self):
        return f"Ball(dim={self.dim}, radius={self.radius})"


class Halfspace(ConvexSet):
    """Halfspace ``{x : <normal, x> <= offset}`` with unnormalized normal."""

    def __init__(self, normal, offset):
        self.normal = as_vector(normal)
        self.offset = as_real(offset, "halfspace offset")
        self._nsq = float(self.normal @ self.normal)
        if self._nsq == 0.0:
            raise ValidationError("halfspace normal must be nonzero")
        self.dim = self.normal.size

    def _project(self, x):
        if x.ndim == 2:
            slack = np.maximum(x @ self.normal - self.offset, 0.0)
            return x - np.outer(slack / self._nsq, self.normal)
        slack = float(self.normal @ x) - self.offset
        if slack <= 0.0:
            return x.copy()
        return x - (slack / self._nsq) * self.normal

    def _normal_rays(self):
        return self.normal[:, None]

    def __repr__(self):
        return f"Halfspace(dim={self.dim})"


def full_space(dim: int) -> AffineSubspace:
    """The whole ambient space (projection is the identity)."""
    if not _is_integer(dim) or dim < 1:
        raise ValidationError("dimension must be an integer of at least one")
    return AffineSubspace(np.zeros(dim), np.eye(dim))
