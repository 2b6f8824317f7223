"""Nonexpansive operator algebra.

Operator trees are immutable and evaluation is pure; ``_apply`` takes one
vector or an ``(n, dim)`` stack of rows.  Every affine leaf but a projector
onto an affine set (a resolvent, a reflected resolvent, a gradient step) is
an :class:`AffineMap` that stores its ``(M, b)`` once, which keeps exact range
computations available downstream; projector leaves of non-affine sets force
the iterative fallback.  ``is_averaged`` answers the averagedness hypothesis
of the composition and convex-combination results: each leaf decides it
from its own structure (one SVD for a general affine map that is not a
translation), and a composition or convex combination is averaged when
every part is.  :func:`_cover` bounds each operator's displacement range by
the range calculus of the parts, and each :class:`Cover` states its own
exactness: whether that bound is the closed range itself.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .numeric import ConvexSet, _frozen, as_matrix, as_real, as_vector

#: Spectral-norm slack accepted when validating nonexpansiveness.
NORM_TOL = 1e-10

#: Constants above this are treated as "no averagedness certificate": with the
#: norm slack every nonexpansive matrix would otherwise look (1-eps)-averaged.
ALPHA_CEILING = 1.0 - 1e-6

#: Cap for certified cocoercivity moduli (a zero map is arbitrarily cocoercive).
MU_CAP = 1e12


def _spectral_norm(M: np.ndarray) -> float:
    """Largest singular value of a finite 2-d ``M`` (the same LAPACK call as ``norm(M, 2)``)."""
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _averaged_at(M: np.ndarray, alpha: float) -> bool:
    """Whether ``M = (1-alpha) Id + alpha N`` with ``N`` nonexpansive within :data:`NORM_TOL`."""
    N = (M - (1.0 - alpha) * np.eye(M.shape[0])) / alpha
    return _spectral_norm(N) <= 1.0 + NORM_TOL


class MonotoneAffine:
    """Affine monotone operator ``x -> Qx + q`` (symmetric part of Q is PSD).

    Maximal monotonicity is automatic for full-domain affine maps, so the only
    structural requirement is ``Q + Q^T >= 0`` within a small slack.  The
    ascending eigenvalues of ``(Q + Q^T)/2`` (read-only ``_sym_eigvals``) and
    ``(I + Q)^{-1}`` are computed once, for the operator and its shifted copies.
    """

    def __init__(self, Q, q):
        self.Q = Q = _frozen(as_matrix(Q, square=True))
        self.q = _frozen(as_vector(q, Q.shape[0]))
        eigs = np.linalg.eigvalsh((Q + Q.T) / 2.0)
        if eigs[0] < -NORM_TOL:
            raise ValidationError(
                f"Q + Q^T must be positive semidefinite (min eigenvalue {eigs[0]:.3e})"
            )
        self._sym_eigvals = _frozen(eigs)

    @property
    def dim(self) -> int:
        return self.q.size

    @cached_property
    def _resolvent_matrix(self) -> np.ndarray:
        """``(I + Q)^{-1}``, read-only; ``I + Q`` has symmetric part at least
        the identity, so it is always invertible."""
        return _frozen(np.linalg.inv(np.eye(self.dim) + self.Q))

    @cached_property
    def _cocoercivity(self) -> float:
        Q = self.Q  # the modulus of cocoercivity_modulus
        if _spectral_norm(Q) <= NORM_TOL:
            return MU_CAP
        if np.max(np.abs(Q - Q.T)) <= NORM_TOL:
            lam_max = float(self._sym_eigvals[-1])
            if lam_max <= 1.0 / MU_CAP:
                return MU_CAP
            return min(1.0 / lam_max, MU_CAP)
        lam_min = float(self._sym_eigvals[0])
        if lam_min <= NORM_TOL:
            return 0.0
        return min(lam_min / _spectral_norm(Q) ** 2, MU_CAP)

    def __call__(self, x) -> np.ndarray:
        return self.Q @ as_vector(x, self.dim) + self.q

    def _with_q(self, q) -> "MonotoneAffine":
        """The operator ``x -> Qx + q``: the validated ``Q``, its symmetric
        part's eigenvalues and its inverse carry over, so only the new ``q`` is
        checked (finite, which an overflowing shift is not)."""
        q = as_vector(q, self.dim)
        other = MonotoneAffine.__new__(MonotoneAffine)
        other.Q, other.q, other._sym_eigvals = self.Q, _frozen(q), self._sym_eigvals
        other._resolvent_matrix = self._resolvent_matrix
        return other

    def shift_input(self, y) -> "MonotoneAffine":
        """The operator ``x -> A(x - y)`` (same Q, constant term q - Qy)."""
        y = as_vector(y, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # _with_q refuses a non-finite q
            return self._with_q(self.q - self.Q @ y)

    def shift_output(self, y) -> "MonotoneAffine":
        """The operator ``x -> A(x) - y`` (same Q, constant term q - y)."""
        y = as_vector(y, self.dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._with_q(self.q - y)

    def __repr__(self):
        return f"MonotoneAffine(dim={self.dim})"


class Cover(NamedTuple):
    """``base + span(span columns) + cone(rays columns)``, a closed convex
    superset of a displacement range; None stands for all of R^dim.

    ``exact`` says whether it is ``cl ran(Id - T)`` itself, not a superset.
    It is for a map that flattens and for a projector (the closed cone of its
    normals).  The closure of a composition's range is the sum of its parts'
    when all but one part is averaged (the composition result), and a convex
    combination's is the weighted sum when every part is (Brezis-Haraux);
    either way only when every part's cover is exact.
    """

    base: np.ndarray
    span: np.ndarray
    rays: np.ndarray
    exact: bool

    @staticmethod
    def weighted_sum(parts, weights, exact: bool) -> "Cover | None":
        """``sum_i w_i _cover(part_i)`` for ``w_i > 0`` (subspaces and cones
        absorb ``w_i``), exact when ``exact`` (the sum rule holds) and every
        part's cover is; None from the first part whose cover is None on."""
        covers = []
        for part in parts:
            if (c := _cover(part)) is None:
                return None
            covers.append(c)
        return Cover(sum(w * c.base for w, c in zip(weights, covers)),
                     np.hstack([c.span for c in covers]), np.hstack([c.rays for c in covers]),
                     exact and all(c.exact for c in covers))


class Operator:
    """Base class for nonexpansive operators on R^dim.

    ``is_averaged`` is true when the operator certifies itself averaged: some
    ``alpha`` in (0, 1) writes it as ``(1 - alpha) Id + alpha N`` with ``N``
    nonexpansive.  False means merely nonexpansive as far as it can tell.
    """

    dim: int
    is_averaged: bool

    def apply(self, x) -> np.ndarray:
        """Evaluate the operator at ``x``."""
        return self._apply(as_vector(x, self.dim))

    __call__ = apply

    def _apply(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Evaluate at one vector or at each row of an ``(n, dim)`` stack."""
        raise NotImplementedError

    def _affine_pair(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(M, b)`` with ``self(x) == M @ x + b``, or None when not affine."""
        return None

    def _displacement_cover(self) -> Cover | None:
        """A :class:`Cover` of ``{x - self(x)}``, or None for all of R^dim."""
        return None


class AffineMap(Operator):
    """Affine map ``x -> Mx + b`` with spectral norm of M at most one.

    A constructed map whose ``M`` is exactly the identity is a translation:
    it is validated and averaged with no SVD, and applies as ``x + b``
    (``I @ x`` is ``x``, bit for bit, for finite ``x``).
    """

    _translation = False

    def __init__(self, M, b):
        M = as_matrix(M, square=True)
        b = as_vector(b, M.shape[0])
        translation = np.array_equal(M, np.eye(M.shape[0]))
        if not translation and _spectral_norm(M) > 1.0 + NORM_TOL:
            raise ValidationError("affine map is not nonexpansive: spectral norm exceeds one")
        self._set(M, b)
        self._translation = translation

    @classmethod
    def _collapsed(cls, M: np.ndarray, b: np.ndarray) -> "AffineMap":
        """A finite ``(M, b)`` known nonexpansive, without the validation SVD:
        that of a tree of validated parts (a composition or convex combination
        of nonexpansive maps is nonexpansive, up to rounding), or an ``M``
        scaled to a norm of at most one."""
        self = cls.__new__(cls)
        self._set(M, b)
        return self

    def _set(self, M: np.ndarray, b: np.ndarray) -> None:
        self.M = _frozen(M)
        self.b = _frozen(b)
        self.dim = M.shape[0]

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def translation(cls, offset) -> "AffineMap":
        """The map ``x -> x + offset``."""
        offset = as_vector(offset)
        return cls(np.eye(offset.size), offset)

    def _apply(self, x):
        if self._translation:
            return x + self.b
        return (self.M @ x if x.ndim == 1 else x @ self.M.T) + self.b

    def _affine_pair(self):
        return self.M, self.b

    @cached_property
    def is_averaged(self):
        # for alpha < beta, N_beta = (1 - alpha/beta) Id + (alpha/beta) N_alpha
        # has norm at most 1 + (alpha/beta) tol, so averaged at any alpha
        # below ALPHA_CEILING implies averaged at ALPHA_CEILING: one SVD
        # decides, with no norm check, so a collapsed map a rounding above
        # 1 + NORM_TOL is judged too; the identity is averaged at every alpha
        return self._translation or _averaged_at(self.M, ALPHA_CEILING)

    def __repr__(self):
        return f"AffineMap(dim={self.dim})"


class SetProjector(Operator):
    """Projection onto a closed convex set; firmly nonexpansive."""

    def __init__(self, set_: ConvexSet):
        if not isinstance(set_, ConvexSet):
            raise ValidationError("SetProjector wraps a ConvexSet")
        self.set = set_
        self.dim = set_.dim
        self._apply = set_._project  # no call layer of its own on the iterative route

    def _affine_pair(self):
        return self.set._affine_projection()

    def _displacement_cover(self):
        rays = self.set._normal_rays()
        return None if rays is None else Cover(np.zeros(self.dim), np.zeros((self.dim, 0)), rays,
                                               True)

    is_averaged = True  # firmly nonexpansive

    def __repr__(self):
        return f"SetProjector({self.set!r})"


class GradientStep(AffineMap):
    """Explicit gradient step ``x -> x - step (Qx + q)`` for a convex quadratic:
    the affine map ``(I - step Q, -step q)``.

    The step is ``Id - step A`` for the monotone ``A = MonotoneAffine(Q, q)``,
    which validates the quadratic.  ``Q`` must also be symmetric: it is the
    Hessian of ``f(x) = 1/2 <x, Qx> + <q, x>``, and a skew part would
    invalidate the averagedness certificate below.  ``step * lmax(Q) <= 2``
    keeps the map nonexpansive (averaged with constant ``step * lmax / 2``
    when strict).
    """

    def __init__(self, Q, q, step):
        self._take(MonotoneAffine(Q, q), step)

    @classmethod
    def _of(cls, A: MonotoneAffine, step) -> "GradientStep":
        """The step map of an already validated ``A``, whose ``Q``, ``q`` and
        spectrum of sym(Q) it takes as they are: no second eigendecomposition."""
        self = cls.__new__(cls)
        self._take(A, step)
        return self

    def _take(self, A: MonotoneAffine, step) -> None:
        if np.max(np.abs(A.Q - A.Q.T)) > NORM_TOL:
            raise ValidationError("gradient step requires a symmetric Q")
        step = as_real(step, "step", positive=True)
        lips = max(float(A._sym_eigvals[-1]), 0.0)
        if step * lips > 2.0 + NORM_TOL:
            raise ValidationError(
                f"step * lmax = {step * lips:.6g} exceeds 2: the step map is expansive"
            )
        self.Q, self.q = A.Q, A.q
        self.step = step
        self.lipschitz = lips
        self._set(np.eye(A.dim) - step * A.Q, -step * A.q)
        # the margin keeps step * lmax within rounding of 2 merely nonexpansive
        self.is_averaged = step * lips < 2.0 - 1e-12

    def __repr__(self):
        return f"GradientStep(dim={self.dim}, step={self.step})"


class Resolvent(AffineMap):
    """Resolvent ``(Id + A)^{-1}`` of an affine monotone operator: the affine
    map ``(K, -K q)`` with the operator's cached ``K = (I + Q)^{-1}``."""

    def __init__(self, operator: MonotoneAffine):
        if not isinstance(operator, MonotoneAffine):
            raise ValidationError("Resolvent wraps a MonotoneAffine")
        self.operator = operator
        K = operator._resolvent_matrix
        self._set(K, -(K @ operator.q))

    is_averaged = True  # firmly nonexpansive

    def __repr__(self):
        return f"Resolvent(dim={self.dim})"


class ReflectedResolvent(AffineMap):
    """Reflected resolvent ``2 (Id + A)^{-1} - Id``: the affine map
    ``(2 K - I, 2 b_J)`` of the resolvent ``J = (K, b_J)``.  Nonexpansive, and
    averaged with constant ``1/(1 + mu)`` when a cocoercivity modulus
    ``mu > 0`` of the underlying operator is certified."""

    def __init__(self, operator: MonotoneAffine):
        if not isinstance(operator, MonotoneAffine):
            raise ValidationError("ReflectedResolvent wraps a MonotoneAffine")
        self.operator = operator
        self.resolvent = J = Resolvent(operator)
        self._set(2.0 * J.M - np.eye(J.dim), 2.0 * J.b)

    @cached_property
    def is_averaged(self):
        return cocoercivity_modulus(self.operator) > 0.0

    def __repr__(self):
        return f"ReflectedResolvent(dim={self.dim})"


def _parts(parts, what: str) -> tuple:
    """``parts`` as a tuple of at least one :class:`Operator`, all of one
    dimension; ``what`` names the list in the error."""
    parts = tuple(parts)
    if not parts:
        raise ValidationError(f"{what} needs at least one part")
    for p in parts:
        if not isinstance(p, Operator):
            raise ValidationError(f"{what} parts must be operators")
        if p.dim != parts[0].dim:
            raise ValidationError(f"{what} parts must share one ambient dimension")
    return parts


class Composition(Operator):
    """Composition applying ``parts[0]`` first, then each later part in order."""

    def __init__(self, parts):
        self.parts = parts = _parts(parts, "composition")
        self.dim = parts[0].dim

    def _apply(self, x):
        for p in self.parts:
            x = p._apply(x)
        return x

    def _affine_pair(self):
        pairs = [p._affine_pair() for p in self.parts]
        if any(pair is None for pair in pairs):
            return None
        M, b = pairs[0]
        with np.errstate(over="ignore", invalid="ignore"):  # flatten_to_affine reports an overflow
            for Mp, bp in pairs[1:]:
                M, b = Mp @ M, Mp @ b + bp
        return M, b

    def _displacement_cover(self):
        # x - T_m..T_1 x telescopes into the parts' displacements along the orbit
        return Cover.weighted_sum(self.parts, np.ones(len(self.parts)),
                                  _composition_hypothesis(self.parts)[0])

    @cached_property
    def is_averaged(self):
        return all(p.is_averaged for p in self.parts)

    def __repr__(self):
        return f"Composition({len(self.parts)} parts, dim={self.dim})"


class ConvexCombination(Operator):
    """Pointwise convex combination ``x -> sum_i w_i parts[i](x)``."""

    def __init__(self, weights, parts):
        self.parts = parts = _parts(parts, "combination")
        weights = as_vector(weights)
        if weights.size != len(parts):
            raise ValidationError("need one positive weight per part")
        if np.any(weights <= 0.0) or np.any(weights >= 1.0 + 1e-12):
            raise ValidationError("weights must lie in (0, 1)")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValidationError("weights must sum to one")
        self.weights = _frozen(weights)
        self.dim = parts[0].dim

    def _apply(self, x):
        out = self.weights[0] * self.parts[0]._apply(x)
        for w, p in zip(self.weights[1:], self.parts[1:]):
            out += w * p._apply(x)
        return out

    def _affine_pair(self):
        pairs = [p._affine_pair() for p in self.parts]
        if any(pair is None for pair in pairs):
            return None
        M, b = np.zeros((self.dim, self.dim)), np.zeros(self.dim)
        with np.errstate(over="ignore", invalid="ignore"):  # flatten_to_affine reports an overflow
            for w, (Mp, bp) in zip(self.weights, pairs):
                M += w * Mp
                b += w * bp
        return M, b

    def _displacement_cover(self):
        # x - sum w_i T_i x = sum w_i (x - T_i x)
        return Cover.weighted_sum(self.parts, self.weights, self.is_averaged)

    is_averaged = Composition.is_averaged  # averaged iff every part is

    def __repr__(self):
        return f"ConvexCombination({len(self.parts)} parts, dim={self.dim})"


def cocoercivity_modulus(A: MonotoneAffine) -> float:
    """Certified ``mu`` with ``<u, Qu> >= mu ||Qu||^2`` for all ``u``, computed
    once per operator.

    For symmetric ``Q`` (within :data:`NORM_TOL`) the largest modulus is
    ``1 / lmax(Q)`` (capped at :data:`MU_CAP` for the zero map).  For
    nonsymmetric ``Q`` the conservative valid bound
    ``lmin((Q+Q^T)/2) / smax(Q)^2`` is certified; a vanishing symmetric part
    yields ``mu = 0`` (no certificate).
    """
    if not isinstance(A, MonotoneAffine):
        raise ValidationError("cocoercivity_modulus expects a MonotoneAffine")
    return A._cocoercivity


_FLAT_UNSET = object()


@lru_cache(maxsize=16)
def _probe_stack(dim: int) -> np.ndarray:
    """The read-only ``(dim + 11, dim)`` cross-check probes of :func:`flatten_to_affine`."""
    probes = np.vstack((np.zeros(dim), np.eye(dim),
                        np.random.default_rng(0).standard_normal((10, dim))))
    probes.setflags(write=False)
    return probes


def flatten_to_affine(T: Operator) -> AffineMap | None:
    """Collapse an operator tree to one affine map when every leaf is affine.

    An :class:`AffineMap` (resolvents, reflected resolvents and gradient steps
    are ones) is returned as it is; ``None`` when a projector of a non-affine
    set occurs anywhere in the tree.  Any other operator (a tree, or a
    projector of an affine set) is collapsed and cross-checked against its
    evaluation at dim+11 points (0, the unit vectors, ten seeded Gaussian
    samples), stacked into one tree walk, within a relative 1e-9.  A
    disagreement, or a collapsed ``M`` or ``b`` that is not finite (an
    overflow), raises ``NumericalError``; only agreement is cached.  The parts
    were validated nonexpansive when they were built, so the collapsed map is
    not validated again.
    """
    if not isinstance(T, Operator):
        raise ValidationError("flatten_to_affine expects an Operator")
    cached = getattr(T, "_flat_cache", _FLAT_UNSET)
    if cached is not _FLAT_UNSET:
        return cached
    if isinstance(T, AffineMap):
        T._flat_cache = T
        return T
    pair = T._affine_pair()
    if pair is None:
        flat = None
    else:
        M, b = pair
        if not (np.isfinite(M).all() and np.isfinite(b).all()):
            raise NumericalError("flattened affine map has non-finite entries")
        probes = _probe_stack(T.dim)
        direct = T._apply(probes)
        err = np.linalg.norm(direct - (probes @ M.T + b), axis=1)
        # negated, so that a NaN error fails too
        bad = np.flatnonzero(~(err <= 1e-9 * (1.0 + np.linalg.norm(direct, axis=1))))
        if bad.size:
            raise NumericalError(
                f"flattened affine map disagrees with tree evaluation (error {err[bad[0]]:.3e})"
            )
        flat = AffineMap._collapsed(M, b)
    T._flat_cache = flat
    return flat


def _cover(T: Operator) -> Cover | None:
    """Superset of ``cl ran(Id - T)`` (None: R^dim) by the range calculus,
    exact when ``T`` flattens to ``x -> Mx + b``: ``-b + ran(I - M)``, left
    unfactored until the whole cover is known to be a proper set."""
    if (flat := flatten_to_affine(T)) is not None:
        return Cover(-flat.b, np.eye(T.dim) - flat.M, np.zeros((T.dim, 0)), True)
    return T._displacement_cover()


def _composition_hypothesis(ops) -> tuple[bool, str]:
    """Whether all but one of ``ops`` are averaged, the hypothesis of the
    composition result, with a note saying why not."""
    averaged = sum(1 for op in ops if op.is_averaged)
    met = averaged >= len(ops) - 1
    notes = "" if met else (
        f"hypothesis unmet: only {averaged} of {len(ops)} operators certified averaged "
        f"(need all but one)"
    )
    return met, notes

