"""Minimal displacement vectors of nonexpansive operators.

The minimal displacement vector of ``T`` is the projection of the origin onto
the closure of the range of ``Id - T``; its norm measures how inconsistent the
fixed-point problem for ``T`` is.  For operators that flatten to an affine map
the range is an affine subspace and everything is exact; otherwise two
classical iterations estimate the vector: the residual ``x_n - T x_n`` for
averaged maps, and the normalized iterate ``-x_n / n`` for merely nonexpansive
ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedOperatorError, ValidationError
from .numeric import AffineSubspace, as_vector, orthonormal_range_basis
from .operators import Operator, flatten_to_affine

EXACT_AFFINE = "exact_affine"
RESIDUAL_ITERATION = "residual_iteration"
NORMALIZED_ITERATE = "normalized_iterate"

_METHODS = (EXACT_AFFINE, RESIDUAL_ITERATION, NORMALIZED_ITERATE)

DEFAULT_MAX_ITER = 100_000
DEFAULT_TOL = 1e-8

_FINITE_CHECK_EVERY = 128
# Consecutive small successive-difference steps needed before an iterative run
# counts as converged; a single quiet step can be a transient plateau.
_STALL_PATIENCE = 64


@dataclass(frozen=True, eq=False)
class DisplacementEstimate:
    """A displacement-vector estimate together with convergence metadata.

    ``residual`` is the last successive-estimate difference for the iterative
    methods.  For the exact method it is the attainment residual: the distance
    of the vector from the cached displacement range, i.e. rounding only.
    """

    vector: np.ndarray
    residual: float
    iterations: int
    method: str
    converged: bool

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown estimation method {self.method!r}")
        if not self.residual >= 0.0:
            raise ValidationError("residual must be nonnegative")
        if self.method == EXACT_AFFINE and (self.iterations != 0 or not self.converged):
            raise ValidationError("exact estimates have zero iterations and converge")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


def displacement_range_affine(T: Operator) -> AffineSubspace:
    """Affine-subspace representation of ``{x - T x : x}`` for affine ``T``.

    The displacement map of ``x -> Mx + b`` is ``x -> (I - M) x - b``, so the
    range is the column space of ``I - M`` through the point ``-b``.  One SVD
    of ``I - M``, cached on the operator, is the exact route's only rank
    decision; :func:`flatten_to_affine` already cross-checked ``(M, b)``.
    """
    cached = getattr(T, "_range_cache", None)
    if cached is not None:
        return cached
    flat = flatten_to_affine(T)
    if flat is None:
        raise UnsupportedOperatorError(
            "operator does not flatten to an affine map; use displacement_iterative"
        )
    # Entries of I - M are O(1) for nonexpansive M, so singular values at the
    # 1e-13 level are accumulated rounding (e.g. weights summing to 1 +- ulp),
    # not genuine directions of the displacement range.
    floor = 64.0 * np.finfo(float).eps * T.dim * (1.0 + flat.norm)
    span = orthonormal_range_basis(np.eye(T.dim) - flat.M, floor=floor)
    rng_space = AffineSubspace(-flat.b, span)
    T._range_cache = rng_space
    return rng_space


def displacement_exact_affine(T: Operator) -> DisplacementEstimate:
    """Exact minimal displacement vector of an affine-flattenable operator:
    the projection of the origin onto the (closed, so attained) cached range.
    """
    rng_space = displacement_range_affine(T)
    vector = rng_space.project(np.zeros(T.dim))
    return DisplacementEstimate(vector, rng_space.distance(vector), 0, EXACT_AFFINE, True)


def displacement_iterative(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Estimate the minimal displacement vector by fixed-point iteration.

    Averaged operators use the residual ``x_n - T x_n``, which converges to
    the minimal displacement vector; merely nonexpansive ones fall back to the
    normalized iterate ``-x_n / n``.  Iteration stops once successive vector
    estimates stay within ``tol`` for a run of consecutive steps, or after
    ``max_iter`` steps.  The run requirement guards against transient
    plateaus: piecewise-affine geometry (projections onto boxes or
    halfspaces) can hold the residual exactly constant for a stretch while
    the iterate is still sliding toward the limit.

    Parameters
    ----------
    T : Operator
        Nonexpansive operator (by construction of the variants).
    x0 : array-like, optional
        Starting point; the origin when omitted.
    max_iter, tol
        Iteration budget and successive-difference threshold.
    """
    if not isinstance(T, Operator):
        raise ValidationError("displacement_iterative expects an Operator")
    if max_iter < 1:
        raise ValidationError("max_iter must be at least one")
    if not (tol > 0.0):
        raise ValidationError("tol must be positive")
    x = np.zeros(T.dim) if x0 is None else as_vector(x0, T.dim).copy()

    flat = flatten_to_affine(T)
    contractive = False
    if flat is None:
        step = T._apply
    else:
        M, b = flat.M, flat.b
        # A strictly contractive affine map has a unique fixed point, so the
        # residual converges geometrically even without an averagedness
        # certificate (e.g. an orthogonal factor inside a contraction).
        contractive = flat.norm <= 1.0 - 1e-9

        def step(v):
            return M @ v + b

    if contractive or T.regularity().is_averaged:
        return _residual_iteration(step, x, max_iter, tol)
    return _normalized_iterate(step, x, max_iter, tol)


def _check_finite(x: np.ndarray) -> None:
    if not np.all(np.isfinite(x)):
        raise NumericalError("iteration produced non-finite values")


def _residual_iteration(step, x, max_iter, tol) -> DisplacementEstimate:
    tx = step(x)
    est = x - tx
    residual = math.inf
    converged = False
    iterations = 0
    stall = 0
    for n in range(1, max_iter + 1):
        x = tx
        tx = step(x)
        new_est = x - tx
        residual = float(np.linalg.norm(new_est - est))
        est = new_est
        iterations = n
        stall = stall + 1 if residual <= tol else 0
        if stall >= _STALL_PATIENCE:
            converged = True
            break
        if n % _FINITE_CHECK_EVERY == 0:
            _check_finite(x)
    _check_finite(est)
    return DisplacementEstimate(est, residual, iterations, RESIDUAL_ITERATION, converged)


def _normalized_iterate(step, x, max_iter, tol) -> DisplacementEstimate:
    est = None
    residual = math.inf
    converged = False
    iterations = 0
    stall = 0
    for n in range(1, max_iter + 1):
        x = step(x)
        new_est = -x / n
        if est is not None:
            residual = float(np.linalg.norm(new_est - est))
        est = new_est
        iterations = n
        stall = stall + 1 if residual <= tol else 0
        if stall >= _STALL_PATIENCE:
            converged = True
            break
        if n % _FINITE_CHECK_EVERY == 0:
            _check_finite(x)
    _check_finite(est)
    return DisplacementEstimate(est, residual, iterations, NORMALIZED_ITERATE, converged)


def minimal_displacement(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Exact estimate when the operator flattens to affine, iterative otherwise."""
    if flatten_to_affine(T) is not None:
        return displacement_exact_affine(T)
    return displacement_iterative(T, x0=x0, max_iter=max_iter, tol=tol)


def membership_in_displacement_range(T: Operator, y, tol: float = 1e-8) -> bool:
    """Whether ``y`` lies in the displacement range of affine ``T`` within ``tol``.

    Decided by the distance of ``y`` from the cached range of
    :func:`displacement_range_affine`; in finite dimension the range is
    closed, so membership and attainment coincide.
    """
    rng_space = displacement_range_affine(T)
    y = as_vector(y, T.dim)
    if not tol >= 0:
        raise ValidationError("tolerance must be nonnegative")
    return rng_space.contains(y, tol)
