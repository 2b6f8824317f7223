"""Minimal displacement vectors of nonexpansive operators.

The minimal displacement vector of ``T`` is the projection of the origin onto
the closure of the range of ``Id - T``; its norm measures how inconsistent the
fixed-point problem for ``T`` is.  For operators that flatten to an affine map
the range is an affine subspace and everything is exact; otherwise the
residual ``x_n - T x_n`` of a fixed-point iteration estimates the vector.
Averaged maps iterate ``T`` itself.  Merely nonexpansive ones iterate the
Krasnosel'skii-Mann relaxation ``(Id + T) / 2``, which is averaged and whose
minimal displacement vector is half that of ``T`` (Baillon-Bruck-Reich 1978).
An affine ``T`` is first offered exact proposals: its fixed point from one LU
solve, and failing that a point whose displacement is the vector itself, from
one SVD that decides the rank as the exact route does.  The iteration stops
once a residual is certified within ``tol`` of the vector by the range
calculus of compositions and convex combinations.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedOperatorError, ValidationError
from .numeric import AffineSubspace, _rank, as_vector, orthonormal_range_basis
from .operators import Cover, Operator, flatten_to_affine

EXACT_AFFINE = "exact_affine"
RESIDUAL_ITERATION = "residual_iteration"

_METHODS = (EXACT_AFFINE, RESIDUAL_ITERATION)

DEFAULT_MAX_ITER = 100_000
DEFAULT_TOL = 1e-8

_FINITE_CHECK_EVERY = 128
# Consecutive small successive-difference steps needed before an iterative run
# counts as converged; a single quiet step can be a transient plateau.
_STALL_PATIENCE = 64
# Krasnosel'skii-Mann step for maps not certified averaged.
_KM_STEP = 0.5
# Certified exit: rounding of a computed vector of norm s is taken as at most
# _ROUNDING * dim * eps * s; a cover ray whose part outside the cover's span
# is below _RAY_IN_SPAN of its length is not trusted to define the cover point.
_ROUNDING = 8.0
_RAY_IN_SPAN = 1e-8
# Entries of I - M are O(1) for nonexpansive M (|M| <= 1), so singular values
# below _RANGE_FLOOR * dim are accumulated rounding (e.g. weights summing to
# 1 +- ulp), not genuine directions of a displacement range.
_RANGE_FLOOR = 128.0 * np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class DisplacementEstimate:
    """A displacement-vector estimate together with convergence metadata.

    ``residual`` is the last successive-estimate difference for the iterative
    methods.  For the exact method it is the attainment residual: the distance
    of the vector from the cached displacement range, i.e. rounding only.
    ``error_bound`` certifies the distance of ``vector`` from the minimal
    displacement vector, rounding allowed for, when an iterative run stopped
    on it (so it is at most ``tol``); it is None otherwise, and reports do
    not carry it.
    """

    vector: np.ndarray
    residual: float
    iterations: int
    method: str
    converged: bool
    error_bound: float | None = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValidationError(f"unknown estimation method {self.method!r}")
        if not self.residual >= 0.0:
            raise ValidationError("residual must be nonnegative")
        if not _is_integer(self.iterations) or self.iterations < 0:
            raise ValidationError("iterations must be a nonnegative integer")
        if not np.isfinite(self.vector).all():
            raise ValidationError("estimate vector entries must be finite")
        if self.error_bound is not None and not 0.0 <= self.error_bound < math.inf:
            raise ValidationError("error_bound must be nonnegative and finite")
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
    decision (the iterative route ranks by the same rule);
    :func:`flatten_to_affine` already cross-checked ``(M, b)``.
    """
    cached = getattr(T, "_range_cache", None)
    if cached is not None:
        return cached
    flat = flatten_to_affine(T)
    if flat is None:
        raise UnsupportedOperatorError(
            "operator does not flatten to an affine map; use displacement_iterative"
        )
    span = orthonormal_range_basis(np.eye(T.dim) - flat.M, floor=_RANGE_FLOOR * T.dim)
    rng_space = AffineSubspace._computed(-flat.b, span)
    T._range_cache = rng_space
    return rng_space


def displacement_exact_affine(T: Operator) -> DisplacementEstimate:
    """Exact minimal displacement vector of an affine-flattenable operator:
    the projection of the origin onto the (closed, so attained) cached range.
    """
    rng_space = displacement_range_affine(T)
    vector = rng_space._project(np.zeros(T.dim))
    return DisplacementEstimate(vector, rng_space._distance(vector), 0, EXACT_AFFINE, True)


def displacement_iterative(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Estimate the minimal displacement vector by fixed-point iteration.

    Averaged operators iterate ``T``: the residual ``x_n - T x_n`` converges
    to the minimal displacement vector.  Other operators iterate the averaged
    ``T_half = (Id + T) / 2``, whose vector is half of ``T``'s, and report its
    residual doubled.  When ``T`` flattens to ``x -> Mx + b``, up to two
    points are proposed first, one iteration each: the LU-solved fixed point
    of ``T_half``, then ``V_k S_k^-1 U_k^T b`` from one SVD of ``I - M``
    ranked as on the exact route, whose displacement is that route's ``v``.
    A proposal that the bounds below certify ends the run; otherwise the run
    iterates from ``x0``.  On quiet steps
    (successive estimates within ``tol``) the run stops with ``error_bound``
    set once ``|e|``, else ``|e - v|`` (flattenable ``T``), else
    ``sqrt(|e|^2 - |p|^2)`` (``p`` the cover point), each with an allowance
    for rounding, is at most ``tol``; the last cannot read below about
    ``sqrt(2 gamma) |p|``, ``gamma = 8 dim eps``.  Failing that,
    iteration stops once successive estimates stay within ``tol`` for 64
    consecutive steps, or after ``max_iter`` iterations.  The run
    requirement guards against transient plateaus: piecewise-affine geometry
    (projections onto boxes or halfspaces) can hold the residual exactly
    constant for a stretch while the iterate is still sliding toward the limit.

    Parameters
    ----------
    T : Operator
        Nonexpansive operator (by construction of the variants).
    x0 : array-like, optional
        Starting point; the origin when omitted.
    max_iter, tol
        Iteration budget (a positive integer) and successive-difference
        threshold (positive and finite).
    """
    if not isinstance(T, Operator):
        raise ValidationError("displacement_iterative expects an Operator")
    _check_budget(max_iter, tol)
    x = np.zeros(T.dim) if x0 is None else as_vector(x0, T.dim).copy()

    spent = 0  # iterations spent on proposals
    flat = flatten_to_affine(T)
    if flat is None:
        step = T._apply
        bound = _error_bound(T.dim, tol, lambda: _cover_point(T), exact=False)

        def relaxed(v):
            return v + _KM_STEP * (step(v) - v)
    else:
        M, b = flat.M, flat.b
        M_h = (1.0 - _KM_STEP) * np.eye(T.dim) + _KM_STEP * M
        b_h = _KM_STEP * b

        def step(v):
            return M @ v + b

        def relaxed(v):
            return M_h @ v + b_h

        solved = functools.cache(lambda: _range_point(M, b))  # the one SVD of I - M
        bound = _error_bound(T.dim, tol, lambda: (solved()[1], _norm(b)), exact=True)
        for propose in (lambda: _fixed_point(M_h, b_h), lambda: solved()[0]):
            if spent == max_iter:
                break
            if (x_hat := propose()) is None:
                continue
            spent += 1
            tx_hat = relaxed(x_hat)
            r_hat = x_hat - tx_hat
            if (err := bound(r_hat, x_hat, tx_hat, _KM_STEP)) <= tol:
                residual = _norm(r_hat - (x - relaxed(x))) / _KM_STEP
                return DisplacementEstimate(r_hat / _KM_STEP, residual, spent,
                                            RESIDUAL_ITERATION, True, err)
    if T.is_averaged:
        return _residual_iteration(step, x, max_iter, tol, bound, spent=spent)
    return _residual_iteration(relaxed, x, max_iter, tol, bound, _KM_STEP, spent)


def _is_integer(n) -> bool:
    return isinstance(n, numbers.Integral) and not isinstance(n, bool)


def _check_budget(max_iter, tol) -> None:
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValidationError("max_iter must be an integer of at least one")
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0.0 < tol < math.inf:
        raise ValidationError("tol must be positive and finite")


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NumericalError("iteration produced non-finite values")


def _cover(T: Operator) -> Cover | None:
    """Superset of ``cl ran(Id - T)`` (None: R^dim), exact when ``T`` flattens
    to ``x -> Mx + b``: ``-b + ran(I - M)``, left unfactored until the whole
    cover is known to be a proper set."""
    if (flat := flatten_to_affine(T)) is not None:
        return Cover(-flat.b, np.eye(T.dim) - flat.M, np.zeros((T.dim, 0)))
    return T._displacement_cover(_cover)


def _cover_point(T: Operator):
    """``(p, |base|)`` for ``p`` the nearest point to the origin of a
    :func:`_cover` with at most one ray outside its span; None (the origin,
    never farther out than the minimal displacement vector) otherwise."""
    cover = _cover(T)
    if cover is None:
        return None
    # zero columns (translations' I - M) are dropped before the SVD
    span = cover.span[:, cover.span.any(axis=0)]
    basis = orthonormal_range_basis(span, floor=_RANGE_FLOOR * T.dim)
    base, rays = (m - basis @ (basis.T @ m) for m in (cover.base, cover.rays))
    if rays.shape[1] > 1:
        return None
    if rays.shape[1]:
        a = rays[:, 0]
        if _norm(a) <= _RAY_IN_SPAN * _norm(cover.rays[:, 0]):
            return None  # about to be absorbed by the span, or lost to rounding
        base = base + max(0.0, -(a @ base) / (a @ a)) * a
    return base, _norm(cover.base)


def _error_bound(dim: int, tol, point, exact: bool):
    """``bound(est, x, tx, scale) >= |e - v|`` for the estimate ``e = est /
    scale`` of a residual ``x - tx``, or inf; ``point()`` gives ``(p, |base|)``
    of the cover (``p = v`` when ``exact``) or None, and is called once, when
    ``|e|`` first fails.

    The exact residual lies in ``cl ran(Id - T)``; ``e`` may be off it by
    ``de = gamma (|x| + |tx|) / scale`` and ``p`` off by ``dp = gamma (|p| +
    |base|)``, ``gamma = 8 dim eps``.  Bound 1 is ``|e| + 2 de``, bound 2
    ``|e - p| + dp``.  In bound 3 ``|p|`` may overshoot ``|v|`` by ``dp``,
    which puts ``2 (|p| dp + |e| de)`` under the square root; once ``2 |p|
    dp`` alone exceeds ``tol^2`` the run stops trying.
    """
    gamma = _ROUNDING * dim * np.finfo(float).eps
    stage, p, norm_p, dp = "pending", None, 0.0, 0.0

    def bound(est, x, tx, scale):
        nonlocal stage, p, norm_p, dp
        if stage == "hopeless":
            return math.inf
        e = est / scale
        err, de = _norm(e), gamma * (_norm(x) + _norm(tx)) / scale
        if err + 2.0 * de <= tol:
            return err + 2.0 * de
        if stage == "pending":
            stage = "ready"
            if (found := point()) is not None:
                p, base_size = found
                norm_p = _norm(p)
                dp = gamma * (norm_p + base_size)
                if not exact and 2.0 * norm_p * dp > tol * tol:
                    stage = "hopeless"
                    return math.inf
        if p is None:
            return err + 2.0 * de
        d = e - p
        if exact:  # p is v
            return _norm(d) + dp
        # |e* - v|^2 <= |e*|^2 - |v|^2 <= |e*|^2 - |p|^2, and |e|^2 - |p|^2 = |d|^2 + 2 <d, p>
        q = d @ d + 2.0 * (d @ p) + 2.0 * (norm_p * dp + err * de) + de * de
        return math.sqrt(max(0.0, q)) + de

    return bound


def _fixed_point(M, b):
    """``solve(I - M, b)``, one LU factorization; None when ``I - M`` is
    singular or the solution is not finite."""
    try:
        x = np.linalg.solve(np.eye(M.shape[0]) - M, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _range_point(M, b):
    """``(x, v)`` from one SVD of ``I - M`` ranked by the exact route's rule:
    the vector ``v = -b + U_k U_k^T b`` of ``x -> Mx + b``, and ``x = V_k
    S_k^-1 U_k^T b``, whose displacement ``(I - M) x - b`` is ``v``."""
    u, s, vt = np.linalg.svd(np.eye(b.size) - M, full_matrices=False)
    k = _rank(s, floor=_RANGE_FLOOR * b.size)
    c = u[:, :k].T @ b
    return vt[:k].T @ (c / s[:k]), u[:, :k] @ c - b


def _residual_iteration(step, x, max_iter, tol, bound, scale=1.0,
                        spent=0) -> DisplacementEstimate:
    """Iterate ``step`` and estimate by its residual divided by ``scale``,
    certified by ``bound`` on quiet steps; ``spent`` iterations of
    ``max_iter`` are already used."""
    tx = step(x)
    est = x - tx
    residual = math.inf
    converged = False
    iterations = spent
    stall = 0
    while iterations < max_iter:
        x = tx
        tx = step(x)
        new_est = x - tx
        iterations += 1
        residual = _norm(new_est - est) / scale
        est = new_est
        stall = stall + 1 if residual <= tol else 0
        if stall and (err := bound(est, x, tx, scale)) <= tol:
            return DisplacementEstimate(est / scale, residual, iterations, RESIDUAL_ITERATION, True, err)
        if stall >= _STALL_PATIENCE:
            converged = True
            break
        if iterations % _FINITE_CHECK_EVERY == 0:
            _check_finite(x)
    _check_finite(est)
    return DisplacementEstimate(est / scale, residual, iterations, RESIDUAL_ITERATION, converged)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v @ v)  # np.linalg.norm of a 1-d vector, bit for bit


def minimal_displacement(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Exact estimate when the operator flattens to affine, iterative otherwise;
    ``max_iter`` and ``tol`` are validated on both routes."""
    _check_budget(max_iter, tol)
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
