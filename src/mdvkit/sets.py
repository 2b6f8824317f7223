"""Closed convex sets with closed-form exact projectors."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import ValidationError
from .numeric import AffineSubspace, as_vector


class ConvexSet(ABC):
    """A nonempty closed convex subset of R^dim with an exact projector."""

    dim: int

    def project(self, x) -> np.ndarray:
        x = as_vector(x, self.dim)
        return self._project(x)

    @abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray:
        """Project one vector, or each row of an ``(n, dim)`` stack."""

    def distance(self, x) -> float:
        x = as_vector(x, self.dim)
        return float(np.linalg.norm(x - self._project(x)))

    def _affine_projection(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(P, c)`` with ``project(x) == P @ x + c``, or None when not affine."""
        return None

    def _normal_rays(self) -> np.ndarray | None:
        """Columns whose cone holds every ``x - project(x)`` (the polar of the
        recession cone), or None for R^dim; affine sets flatten instead."""
        return None


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
        self.radius = float(radius)
        if not np.isfinite(self.radius) or self.radius <= 0:
            raise ValidationError("ball radius must be positive and finite")
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
        self.offset = float(offset)
        if not np.isfinite(self.offset):
            raise ValidationError("halfspace offset must be finite")
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


class AffineSet(ConvexSet):
    """A closed affine subspace viewed as a convex set."""

    def __init__(self, subspace: AffineSubspace):
        if not isinstance(subspace, AffineSubspace):
            raise ValidationError("AffineSet wraps an AffineSubspace")
        self.subspace = subspace
        self.dim = subspace.dim

    def _project(self, x):
        if x.ndim == 1:
            return self.subspace._project(x)
        base, basis = self.subspace.base, self.subspace.basis
        return base + ((x - base) @ basis) @ basis.T

    def _affine_projection(self):
        P = self.subspace.basis @ self.subspace.basis.T
        return P, self.subspace.base - P @ self.subspace.base

    def __repr__(self):
        return f"AffineSet(dim={self.dim}, rank={self.subspace.rank})"


class Singleton(ConvexSet):
    """A single point."""

    def __init__(self, point):
        self.point = as_vector(point)
        self.dim = self.point.size

    def _project(self, x):
        return np.broadcast_to(self.point, x.shape).copy()

    def _affine_projection(self):
        return np.zeros((self.dim, self.dim)), self.point.copy()

    def __repr__(self):
        return f"Singleton(dim={self.dim})"


def full_space(dim: int) -> AffineSet:
    """The whole ambient space (projection is the identity)."""
    if dim < 1:
        raise ValidationError("dimension must be positive")
    return AffineSet(AffineSubspace(np.zeros(dim), np.eye(dim)))
