"""Dense linear-algebra substrate: orthonormal range bases and affine subspaces.

Vectors are 1-d float64 arrays and matrices are 2-d row-major float64 arrays.
Public entry points validate finiteness and dimensions; arrays held by
:class:`AffineSubspace` are frozen after construction.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

#: Relative singular-value cutoff used for rank decisions.
DEFAULT_RANK_TOL = 1e-10

#: Slack accepted when checking that a stored basis is orthonormal.
ORTHONORMALITY_TOL = 1e-10


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-d float array, optionally of length ``dim``."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValidationError(f"expected a vector, got array of shape {v.shape}")
    if v.size == 0:
        raise ValidationError("vectors must have positive dimension")
    if not np.isfinite(v).all():
        raise ValidationError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise ValidationError(f"dimension mismatch: expected {dim}, got {v.size}")
    return v


def as_matrix(m, square: bool = False) -> np.ndarray:
    """Coerce ``m`` to a finite 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ValidationError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValidationError("matrix entries must be finite")
    if square and a.shape[0] != a.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {a.shape}")
    return a


def orthonormal_range_basis(M, tol: float = DEFAULT_RANK_TOL,
                            floor: float = 0.0) -> np.ndarray:
    """Orthonormal basis of the column space of ``M`` as a ``(rows, rank)`` array.

    Rank is decided by the relative singular-value cutoff ``tol``: directions
    with singular value at most ``tol`` times the largest one are discarded.
    ``floor`` additionally drops singular values at or below an absolute level,
    which matters when ``M`` itself is rounding noise (all entries ~1e-16) and
    the relative test alone would keep every direction.  A zero matrix yields
    a ``(rows, 0)`` array.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] == 0:
        raise ValidationError(f"expected a matrix, got array of shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValidationError("matrix entries must be finite")
    if not (tol >= 0 and floor >= 0):
        raise ValidationError("rank tolerances must be nonnegative")
    rows = M.shape[0]
    if M.shape[1] == 0:
        return np.zeros((rows, 0))
    u, s, _ = np.linalg.svd(M, full_matrices=False)
    return u[:, :_rank(s, tol, floor)].copy()


def _rank(s: np.ndarray, tol: float = DEFAULT_RANK_TOL, floor: float = 0.0) -> int:
    """How many of the descending singular values ``s`` (at least one) pass
    both cutoffs of :func:`orthonormal_range_basis`."""
    return int(np.count_nonzero(s > max(tol * s[0], floor)))


class AffineSubspace:
    """Affine subspace ``{base + span(basis columns)}`` of R^dim.

    ``basis`` holds mutually orthonormal columns; an empty basis represents a
    singleton.  Instances are immutable.
    """

    __slots__ = ("base", "basis")

    def __init__(self, base, basis=None):
        base = as_vector(base)
        if basis is None:
            basis = np.zeros((base.size, 0))
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ValidationError(f"basis must be a (dim, k) array, got shape {basis.shape}")
        if basis.shape[0] != base.size:
            raise ValidationError(
                f"basis rows ({basis.shape[0]}) must match base dimension ({base.size})"
            )
        if basis.size and not np.isfinite(basis).all():
            raise ValidationError("basis entries must be finite")
        if basis.shape[1]:
            gram = basis.T @ basis
            if np.max(np.abs(gram - np.eye(basis.shape[1]))) > ORTHONORMALITY_TOL:
                raise ValidationError("basis columns must be orthonormal")
        base = base.copy()
        basis = basis.copy()
        base.setflags(write=False)
        basis.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _computed(cls, base: np.ndarray, basis: np.ndarray) -> "AffineSubspace":
        """Wrap a finite ``base`` and an orthonormal ``basis`` that mdvkit has
        computed and nothing writes to, without the constructor's copies and
        checks."""
        base.setflags(write=False)
        basis.setflags(write=False)
        self = object.__new__(cls)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "basis", basis)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("AffineSubspace is immutable")

    @property
    def dim(self) -> int:
        return self.base.size

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def project(self, y) -> np.ndarray:
        """Orthogonal projection of ``y`` onto the subspace."""
        return self._project(as_vector(y, self.dim))

    def _project(self, y: np.ndarray) -> np.ndarray:
        if self.rank == 0:
            return self.base.copy()
        return self.base + self.basis @ (self.basis.T @ (y - self.base))

    def distance(self, y) -> float:
        return self._distance(as_vector(y, self.dim))

    def _distance(self, y: np.ndarray) -> float:
        return float(np.linalg.norm(y - self._project(y)))

    def scaled(self, factor: float) -> "AffineSubspace":
        """The set ``{factor * s}``; for factor 0 this is the origin singleton."""
        factor = float(factor)
        if not np.isfinite(factor):
            raise ValidationError("scale factor must be finite")
        if factor == 0.0:
            return AffineSubspace._computed(np.zeros(self.dim), np.zeros((self.dim, 0)))
        # as_vector refuses a base that overflowed
        return AffineSubspace._computed(as_vector(factor * self.base), self.basis)

    def __repr__(self) -> str:
        return f"AffineSubspace(dim={self.dim}, rank={self.rank})"


def minkowski_sum_affine(s1: AffineSubspace, s2: AffineSubspace) -> AffineSubspace:
    """Minkowski sum of two affine subspaces (always closed in finite dimension)."""
    if s1.dim != s2.dim:
        raise ValidationError(f"ambient dimension mismatch: {s1.dim} vs {s2.dim}")
    stacked = np.hstack((s1.basis, s2.basis))
    return AffineSubspace._computed(as_vector(s1.base + s2.base), orthonormal_range_basis(stacked))


def affine_discrepancy(s1: AffineSubspace, s2: AffineSubspace) -> float:
    """Quantitative failure of ``s1 == s2``: base offset plus mutual span residuals."""
    if s1.dim != s2.dim:
        raise ValidationError(f"ambient dimension mismatch: {s1.dim} vs {s2.dim}")
    worst = s1._distance(s2.base)
    for a, b in ((s1, s2), (s2, s1)):
        if b.rank:
            resid = b.basis - a.basis @ (a.basis.T @ b.basis) if a.rank else b.basis
            worst = max(worst, float(np.max(np.linalg.norm(resid, axis=0))))
    return worst
