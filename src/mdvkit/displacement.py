"""Minimal displacement vectors of nonexpansive operators.

The minimal displacement vector of ``T`` is the projection of the origin onto
the closure of the range of ``Id - T``; its norm measures how inconsistent the
fixed-point problem for ``T`` is.  For operators that flatten to an affine map
the range is an affine subspace and everything is exact.  The iterative route
evaluates such a map at two proposed points at most: its fixed point from one
LU solve, and failing that a point whose displacement is the vector itself,
from the one cached SVD of ``I - M`` that gives the exact route its range,
so one rank decision serves both routes.  Other operators are estimated by
the residual ``x_n - T x_n`` of a fixed-point iteration.  Averaged maps
iterate ``T`` itself.  Merely nonexpansive ones iterate the Krasnosel'skii-Mann
relaxation ``(Id + T) / 2``, which is averaged and whose minimal displacement
vector is half that of ``T`` (Baillon-Bruck-Reich 1978).
The iteration stops once :func:`_error_bound` certifies a residual within
``tol`` of the vector, by the range calculus of compositions and convex
combinations (:func:`mdvkit.operators._cover`).  Each cover states its own
exactness: where the paper's results make that calculus exact, the cover's
point nearest the origin is the vector itself, so the error of a residual is
known, linearly, and the run has no stall stop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, UnsupportedOperatorError, ValidationError
from .numeric import AffineSubspace, _is_integer, _rank, as_real, as_vector, orthonormal_range_basis
from .operators import Operator, _cover, flatten_to_affine

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
    method (for an affine proposal, its difference from the estimate at
    ``x0``).  For the exact method it is the attainment residual: the distance
    of the vector from the cached displacement range, i.e. rounding only.
    ``error_bound`` is the bound that certified an iterative estimate ``e``
    within ``tol`` of the vector ``v``, rounding allowed for: ``|e|``,
    ``|e - v|`` (flattenable maps), ``|e - p|`` (``p`` the point of an exact
    cover) or ``sqrt(|e|^2 - |p|^2)`` (``p`` the point of any other cover);
    it is None otherwise, and reports do not carry it.  An iterative estimate
    that converged without one was stall-stopped, which happens only to maps
    that do not flatten to affine and whose cover gives no linear bound.
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
    range is the column space of ``I - M`` through the point ``-b``, read from
    the operator's one cached SVD of ``I - M`` (:func:`_affine_solve`), which
    is both routes' only rank decision; :func:`flatten_to_affine` already
    cross-checked ``(M, b)``.
    """
    return _affine_solve(T)[0]


def displacement_exact_affine(T: Operator) -> DisplacementEstimate:
    """Exact minimal displacement vector of an affine-flattenable operator:
    the projection of the origin onto the (closed, so attained) cached range.
    The estimate is cached on ``T``, its vector read-only.
    """
    cached = getattr(T, "_exact_cache", None)
    if cached is not None:
        return cached
    rng_space = displacement_range_affine(T)
    vector = rng_space._project(np.zeros(T.dim))
    vector.setflags(write=False)
    T._exact_cache = DisplacementEstimate(vector, rng_space._distance(vector), 0, EXACT_AFFINE,
                                          True)
    return T._exact_cache


def displacement_iterative(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Estimate the minimal displacement vector by fixed-point evaluations.

    When ``T`` flattens to ``x -> Mx + b``, two points at most are evaluated,
    one iteration each of ``T_half = (Id + T) / 2``: the LU-solved fixed point
    of ``T_half``, then ``V_k S_k^-1 U_k^T b`` from the exact route's cached
    SVD of ``I - M``, whose displacement is that route's ``v``.
    The first whose doubled residual ``e`` is certified by ``|e|`` or
    ``|e - v|``, each with an allowance for rounding, is returned with
    ``error_bound``; if neither is, the last one evaluated is returned with
    ``converged=False``.

    Other averaged operators iterate ``T``: the residual ``x_n - T x_n``
    converges to the minimal displacement vector.  The rest iterate the
    averaged ``T_half``, whose vector is half of ``T``'s, and report its
    residual doubled.  On quiet steps (successive estimates within ``tol``)
    the run stops with ``error_bound`` set once a bound, with an allowance for
    rounding, is at most ``tol``: ``|e|``; else, where the range calculus is
    exact and ``p`` (the cover point) is the vector, the linear
    ``|e - p|``; else ``sqrt(|e|^2 - |p|^2)``, which cannot read below about
    ``sqrt(2 gamma) |p|``, ``gamma = 8 dim eps``.  Failing that, iteration
    stops once successive estimates stay within ``tol`` for 64 consecutive
    steps, or after ``max_iter`` iterations.  The run requirement guards
    against transient plateaus: piecewise-affine geometry (projections onto
    boxes or halfspaces) can hold the residual exactly constant for a stretch
    while the iterate is still sliding toward the limit.  Where the linear
    bound applies and its rounding floor is below ``tol``, the exact error
    is known, so there is no such stop: only a certificate or ``max_iter``
    ends the run.

    Parameters
    ----------
    T : Operator
        Nonexpansive operator (by construction of the variants).
    x0 : array-like, optional
        Starting point; the origin when omitted.  For a flattenable ``T`` it
        only anchors ``residual``.
    max_iter, tol
        Iteration budget (a positive integer) and successive-difference
        threshold (positive and finite).
    """
    if not isinstance(T, Operator):
        raise ValidationError("displacement_iterative expects an Operator")
    _check_budget(max_iter, tol)
    x = np.zeros(T.dim) if x0 is None else as_vector(x0, T.dim).copy()

    gamma = _ROUNDING * T.dim * np.finfo(float).eps
    flat = flatten_to_affine(T)
    if flat is None:
        return _residual_iteration(T, x, max_iter, tol, gamma)
    M, b = flat.M, flat.b
    M_h = (1.0 - _KM_STEP) * np.eye(T.dim) + _KM_STEP * M
    b_h = _KM_STEP * b
    spent = 0
    for propose in (lambda: _fixed_point(M_h, b_h), lambda: _affine_solve(T)[1]):
        if (x_hat := propose()) is None:
            continue
        spent += 1
        tx_hat = M_h @ x_hat + b_h
        r_hat = x_hat - tx_hat
        e = r_hat / _KM_STEP
        err = _error_bound(e, gamma * (_norm(x_hat) + _norm(tx_hat)) / _KM_STEP, tol, lambda: None)
        if not err <= tol:  # bound 2 allows gamma (|v| + |b|) for v's rounding
            v = displacement_exact_affine(T).vector
            err = _norm(e - v) + gamma * (_norm(v) + _norm(b))
        if err <= tol or spent == max_iter:
            break
    _check_finite(e)
    residual = _norm(r_hat - (x - (M_h @ x + b_h))) / _KM_STEP
    certified = err <= tol
    return DisplacementEstimate(e, residual, spent, RESIDUAL_ITERATION, certified,
                                err if certified else None)


def _check_budget(max_iter, tol) -> None:
    if not _is_integer(max_iter) or max_iter < 1:
        raise ValidationError("max_iter must be an integer of at least one")
    as_real(tol, "tol", positive=True)


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise NumericalError("iteration produced non-finite values")


def _cover_point(T: Operator, gamma: float):
    """``(p, |p|, dp, exact)`` for ``p`` the nearest point to the origin of a
    cover with at most one ray outside its span, ``dp = gamma (|p| + |base|)``
    its rounding allowance, and ``exact`` the cover's own statement that it is
    the closed range itself, so that ``p`` is the minimal displacement
    vector; None (the origin, never farther out than the vector) otherwise."""
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
    norm_p = _norm(base)
    return base, norm_p, gamma * (norm_p + _norm(cover.base)), cover.exact


def _error_bound(e, de, tol, point) -> float:
    """A bound on ``|e - v|`` for an estimate ``e`` computed within ``de`` of a
    point of ``cl ran(Id - T)``, or inf; ``point()`` gives ``(p, |p|, dp,
    exact)`` of the cover or None, and is read only when bound 1 fails.

    Bound 1 is ``|e| + 2 de``.  Where the cover is exact, ``p`` is ``v`` up to
    ``dp``, and the bound is the linear ``|e - p| + 2 de + dp``.  Otherwise,
    in bound 3, ``sqrt(|e|^2 - |p|^2)``, ``|p|`` may overshoot ``|v|`` by
    ``dp``, which puts ``2 (|p| dp + |e| de)`` under the square root; where
    ``2 |p| dp`` alone exceeds ``tol^2`` the bound is inf, and so is every
    later one of the run.  Bound 2 belongs to flattenable maps.
    """
    err = _norm(e)
    if err + 2.0 * de <= tol or (found := point()) is None:
        return err + 2.0 * de
    p, norm_p, dp, exact = found
    if exact:
        return _norm(e - p) + 2.0 * de + dp
    if 2.0 * norm_p * dp > tol * tol:
        return math.inf
    d = e - p
    # |e* - v|^2 <= |e*|^2 - |v|^2 <= |e*|^2 - |p|^2, and |e|^2 - |p|^2 = |d|^2 + 2 <d, p>
    q = d @ d + 2.0 * (d @ p) + 2.0 * (norm_p * dp + err * de) + de * de
    return math.sqrt(max(0.0, q)) + de


def _fixed_point(M, b):
    """``solve(I - M, b)``, one LU factorization; None when ``I - M`` is
    singular or the solution is not finite."""
    try:
        x = np.linalg.solve(np.eye(M.shape[0]) - M, b)
    except np.linalg.LinAlgError:
        return None
    return x if np.isfinite(x).all() else None


def _affine_solve(T: Operator) -> tuple[AffineSubspace, np.ndarray]:
    """``(range, x)`` from one SVD ``U S V^T`` of ``I - M``, cached on ``T``:
    the range ``-b + span U_k`` and ``x = V_k S_k^-1 U_k^T b``, whose
    displacement ``(I - M) x - b`` is the range's point nearest the origin.
    An exactly zero ``I - M`` (a translation, or a composition of them) has
    rank 0 with no SVD: the singleton ``{-b}`` and ``x = 0``, as the SVD gives."""
    cached = getattr(T, "_solve_cache", None)
    if cached is not None:
        return cached
    flat = flatten_to_affine(T)
    if flat is None:
        raise UnsupportedOperatorError(
            "operator does not flatten to an affine map; use displacement_iterative"
        )
    displacement = np.eye(T.dim) - flat.M
    if displacement.any():
        u, s, vt = np.linalg.svd(displacement, full_matrices=False)
        k = _rank(s, floor=_RANGE_FLOOR * T.dim)
        basis = u[:, :k].copy()
        x = vt[:k].T @ ((u[:, :k].T @ flat.b) / s[:k])
    else:
        basis, x = np.zeros((T.dim, 0)), np.zeros(T.dim)
    x.setflags(write=False)
    T._solve_cache = (AffineSubspace._computed(-flat.b, basis), x)
    return T._solve_cache


def _residual_iteration(T, x, max_iter, tol, gamma) -> DisplacementEstimate:
    """Iterate ``T`` if averaged, else ``(Id + T) / 2`` with its residual
    doubled, and stop on a quiet step that :func:`_error_bound` certifies, or
    on a stall: ``_STALL_PATIENCE`` quiet steps in a row, unless the linear
    bound of an exact cover can certify (its floor ``dp`` is below ``tol``)."""
    apply, sqrt = T._apply, math.sqrt  # locals: the loop pays for the map only
    scale = 1.0 if T.is_averaged else _KM_STEP
    step = apply if T.is_averaged else lambda v: v + scale * (apply(v) - v)
    point = functools.cache(lambda: _cover_point(T, gamma))
    patience, check_every = _STALL_PATIENCE, _FINITE_CHECK_EVERY
    tx = step(x)
    est = x - tx
    certify = True  # off once a bound reads inf: no later quiet step pays for one
    stall = 0
    for iterations in range(1, max_iter + 1):
        x = tx
        tx = step(x)
        new_est = x - tx
        d = new_est - est
        residual = sqrt(d @ d) / scale
        est = new_est
        if residual <= tol:  # a quiet step: the only one that certifies or stalls
            stall += 1
            if certify:
                e = est / scale
                err = _error_bound(e, gamma * (_norm(x) + _norm(tx)) / scale, tol, point)
                if err <= tol:
                    return DisplacementEstimate(e, residual, iterations, RESIDUAL_ITERATION,
                                                True, err)
                certify = err < math.inf
            if stall >= patience:
                *_, dp, exact = point() or (math.inf, False)  # read on a quiet step already
                if not (exact and dp < tol):
                    break
                patience = max_iter + 1  # the exact error is known: no stall stop
        else:
            stall = 0
        if not iterations % check_every:
            _check_finite(x)
    _check_finite(est)
    return DisplacementEstimate(est / scale, residual, iterations, RESIDUAL_ITERATION,
                                stall >= patience)


def _norm(v: np.ndarray) -> float:
    return math.sqrt(v @ v)  # np.linalg.norm of a 1-d vector, bit for bit


def minimal_displacement(
    T: Operator,
    x0=None,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
) -> DisplacementEstimate:
    """Exact estimate when the operator flattens to affine, iterative otherwise;
    ``x0``, ``max_iter`` and ``tol`` are validated on both routes."""
    _check_budget(max_iter, tol)
    flat = flatten_to_affine(T)
    if x0 is not None:
        as_vector(x0, T.dim)
    if flat is not None:
        return displacement_exact_affine(T)
    return displacement_iterative(T, x0=x0, max_iter=max_iter, tol=tol)

