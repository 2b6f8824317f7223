"""Nonexpansive operator algebra.

Operator trees are immutable and evaluation is pure; ``_apply`` takes one
vector or an ``(n, dim)`` stack of rows.  Affine leaves keep exact range
computations available downstream; projector leaves of non-affine sets force
the iterative fallback.  Whether a tree is averaged is decided cheaply and
cached; the constant follows the standard two-map composition rule and the
weighted-mean rule for convex combinations, both exercised by sampled
inequalities in the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, ValidationError
from .numeric import as_matrix, as_vector
from .sets import ConvexSet

#: Spectral-norm slack accepted when validating nonexpansiveness.
NORM_TOL = 1e-10

#: Smallest averagedness constant reported (identity-like maps).
ALPHA_FLOOR = 1e-10

#: Constants above this are treated as "no averagedness certificate": with the
#: norm slack every nonexpansive matrix would otherwise look (1-eps)-averaged.
ALPHA_CEILING = 1.0 - 1e-6

#: Cap for certified cocoercivity moduli (a zero map is arbitrarily cocoercive).
MU_CAP = 1e12


def spectral_norm(M) -> float:
    """Largest singular value of ``M`` (the same LAPACK call as ``norm(M, 2)``)."""
    return _spectral_norm(as_matrix(M))


def _spectral_norm(M: np.ndarray) -> float:
    """:func:`spectral_norm` of a matrix already known to be finite and 2-d."""
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M @ x`` for one vector, ``x @ M.T`` for an ``(n, dim)`` stack of rows."""
    return M @ x if x.ndim == 1 else x @ M.T


def _averaged_at(M: np.ndarray, alpha: float, tol: float = NORM_TOL) -> bool:
    """Whether ``M = (1-alpha) Id + alpha N`` with ``N`` nonexpansive within ``tol``."""
    N = (M - (1.0 - alpha) * np.eye(M.shape[0])) / alpha
    return _spectral_norm(N) <= 1.0 + tol


class MonotoneAffine:
    """Affine monotone operator ``x -> Qx + q`` (symmetric part of Q is PSD).

    Maximal monotonicity is automatic for full-domain affine maps, so the only
    structural requirement is ``Q + Q^T >= 0`` within a small slack.
    """

    def __init__(self, Q, q):
        Q = as_matrix(Q, square=True)
        q = as_vector(q, Q.shape[0])
        sym_min = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0])
        if sym_min < -NORM_TOL:
            raise ValidationError(
                f"Q + Q^T must be positive semidefinite (min eigenvalue {sym_min:.3e})"
            )
        Q = Q.copy()
        q = q.copy()
        Q.setflags(write=False)
        q.setflags(write=False)
        self.Q = Q
        self.q = q

    @property
    def dim(self) -> int:
        return self.q.size

    def __call__(self, x) -> np.ndarray:
        return self.Q @ as_vector(x, self.dim) + self.q

    def shift_input(self, y) -> "MonotoneAffine":
        """The operator ``x -> A(x - y)`` (same Q, constant term q - Qy)."""
        y = as_vector(y, self.dim)
        return MonotoneAffine(self.Q, self.q - self.Q @ y)

    def shift_output(self, y) -> "MonotoneAffine":
        """The operator ``x -> A(x) - y`` (same Q, constant term q - y)."""
        y = as_vector(y, self.dim)
        return MonotoneAffine(self.Q, self.q - y)

    def __repr__(self):
        return f"MonotoneAffine(dim={self.dim})"


class Cover(NamedTuple):
    """``base + span(span columns) + cone(rays columns)``, a closed convex
    superset of a displacement range; None stands for all of R^dim."""

    base: np.ndarray
    span: np.ndarray
    rays: np.ndarray

    @staticmethod
    def weighted_sum(parts, weights, cover) -> "Cover | None":
        """``sum_i w_i cover(part_i)`` for ``w_i > 0`` (subspaces and cones
        absorb ``w_i``); None from the first part whose cover is None on."""
        covers = []
        for part in parts:
            if (c := cover(part)) is None:
                return None
            covers.append(c)
        return Cover(sum(w * c.base for w, c in zip(weights, covers)),
                     np.hstack([c.span for c in covers]), np.hstack([c.rays for c in covers]))


@dataclass(frozen=True)
class Regularity:
    """Nonexpansiveness certificate: merely nonexpansive, averaged, or firmly.

    ``firmly`` is interchangeable with averaged at constant one half; the
    :attr:`averagedness` property erases the distinction for computations.
    """

    kind: str
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("nonexpansive", "averaged", "firmly"):
            raise ValidationError(f"unknown regularity kind {self.kind!r}")
        if self.kind == "averaged":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValidationError("averagedness constant must lie in (0, 1)")
        elif self.alpha is not None:
            raise ValidationError(f"{self.kind} regularity carries no constant")

    @classmethod
    def nonexpansive(cls) -> "Regularity":
        return cls("nonexpansive")

    @classmethod
    def averaged(cls, alpha: float) -> "Regularity":
        return cls("averaged", float(alpha))

    @classmethod
    def firmly(cls) -> "Regularity":
        return cls("firmly")

    @property
    def is_averaged(self) -> bool:
        return self.kind != "nonexpansive"

    @property
    def averagedness(self) -> float | None:
        """The certified constant (0.5 for firmly), or None when merely nonexpansive."""
        if self.kind == "firmly":
            return 0.5
        return self.alpha


class Operator:
    """Base class for nonexpansive operators on R^dim."""

    dim: int

    def apply(self, x) -> np.ndarray:
        """Evaluate the operator at ``x``."""
        return self._apply(as_vector(x, self.dim))

    __call__ = apply

    def _apply(self, x: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """Evaluate at one vector or at each row of an ``(n, dim)`` stack."""
        raise NotImplementedError

    @cached_property
    def is_averaged(self) -> bool:
        """Whether the tree certifies itself averaged, without computing a constant."""
        return self.regularity().is_averaged

    def regularity(self) -> Regularity:
        """Best certificate this tree can derive for itself, with its constant (cached)."""
        reg = getattr(self, "_reg_cache", None)
        if reg is None:
            reg = self._regularity()
            self._reg_cache = reg
        return reg

    def _regularity(self) -> Regularity:  # pragma: no cover - abstract
        raise NotImplementedError

    def _affine_pair(self) -> tuple[np.ndarray, np.ndarray] | None:
        """``(M, b)`` with ``self(x) == M @ x + b``, or None when not affine."""
        return None

    def _displacement_cover(self, cover) -> Cover | None:
        """A :class:`Cover` of ``{x - self(x)}``; ``cover(part)`` gives a part's."""
        return None


class AffineMap(Operator):
    """Affine map ``x -> Mx + b`` with spectral norm of M at most one.

    ``norm`` is the spectral norm of ``M``: the constructor keeps the one it
    computed for validation, and a map built by :func:`flatten_to_affine`
    computes it on first read.
    """

    def __init__(self, M, b):
        M = as_matrix(M, square=True)
        b = as_vector(b, M.shape[0])
        norm = _spectral_norm(M)
        if norm > 1.0 + NORM_TOL:
            raise ValidationError("affine map is not nonexpansive: spectral norm exceeds one")
        self._set(M, b)
        self.norm = norm

    @classmethod
    def _collapsed(cls, M: np.ndarray, b: np.ndarray) -> "AffineMap":
        """The finite ``(M, b)`` of a tree of validated parts, without the
        validation SVD: a composition or convex combination of nonexpansive
        maps is nonexpansive, up to rounding."""
        self = cls.__new__(cls)
        self._set(M, b)
        return self

    def _set(self, M: np.ndarray, b: np.ndarray) -> None:
        M = M.copy()
        b = b.copy()
        M.setflags(write=False)
        b.setflags(write=False)
        self.M = M
        self.b = b
        self.dim = M.shape[0]

    @cached_property
    def norm(self) -> float:
        return _spectral_norm(self.M)

    @classmethod
    def identity(cls, dim: int) -> "AffineMap":
        return cls(np.eye(dim), np.zeros(dim))

    @classmethod
    def translation(cls, offset) -> "AffineMap":
        """The map ``x -> x + offset``."""
        offset = as_vector(offset)
        return cls(np.eye(offset.size), offset)

    def _apply(self, x):
        return _matvec(self.M, x) + self.b

    def _affine_pair(self):
        return self.M, self.b

    @cached_property
    def is_averaged(self):
        # minimal_averagedness(M) is not None, without its bisection: for
        # alpha < beta, N_beta = (1 - alpha/beta) Id + (alpha/beta) N_alpha has
        # norm at most 1 + (alpha/beta) tol, so averaged at ALPHA_FLOOR implies
        # averaged at ALPHA_CEILING and one SVD decides
        return _averaged_at(self.M, ALPHA_CEILING)

    def _regularity(self):
        # the bisection without minimal_averagedness's norm check: a collapsed
        # map may sit a rounding above 1 + NORM_TOL, and is then judged only
        # by whether it is averaged at ALPHA_CEILING
        alpha = _bisect_averagedness(self.M, NORM_TOL)
        if alpha is None:
            return Regularity.nonexpansive()
        return Regularity.averaged(alpha)

    def __repr__(self):
        return f"AffineMap(dim={self.dim})"


class SetProjector(Operator):
    """Projection onto a closed convex set; firmly nonexpansive."""

    def __init__(self, set_: ConvexSet):
        if not isinstance(set_, ConvexSet):
            raise ValidationError("SetProjector wraps a ConvexSet")
        self.set = set_
        self.dim = set_.dim

    def _apply(self, x):
        return self.set._project(x)

    def _affine_pair(self):
        return self.set._affine_projection()

    def _displacement_cover(self, cover):
        rays = self.set._normal_rays()
        return None if rays is None else Cover(np.zeros(self.dim), np.zeros((self.dim, 0)), rays)

    def _regularity(self):
        return Regularity.firmly()

    def __repr__(self):
        return f"SetProjector({self.set!r})"


class GradientStep(Operator):
    """Explicit gradient step ``x -> x - step (Qx + q)`` for a convex quadratic.

    ``Q`` must be symmetric positive semidefinite: it is the Hessian of
    ``f(x) = 1/2 <x, Qx> + <q, x>``, and a skew part would invalidate the
    averagedness certificate below.  ``step * lmax(Q) <= 2`` keeps the map
    nonexpansive (averaged with constant ``step * lmax / 2`` when strict).
    """

    def __init__(self, Q, q, step):
        Q = as_matrix(Q, square=True)
        q = as_vector(q, Q.shape[0])
        step = float(step)
        if np.max(np.abs(Q - Q.T)) > NORM_TOL:
            raise ValidationError("gradient step requires a symmetric Q")
        eigs = np.linalg.eigvalsh((Q + Q.T) / 2.0)
        if float(eigs[0]) < -NORM_TOL:
            raise ValidationError("gradient step requires a positive semidefinite Q")
        if not np.isfinite(step) or step <= 0.0:
            raise ValidationError("step must be positive and finite")
        lips = max(float(eigs[-1]), 0.0)
        if step * lips > 2.0 + NORM_TOL:
            raise ValidationError(
                f"step * lmax = {step * lips:.6g} exceeds 2: the step map is expansive"
            )
        Q = Q.copy()
        q = q.copy()
        Q.setflags(write=False)
        q.setflags(write=False)
        self.Q = Q
        self.q = q
        self.step = step
        self.lipschitz = lips
        self.dim = Q.shape[0]

    def _apply(self, x):
        return x - self.step * (_matvec(self.Q, x) + self.q)

    def _affine_pair(self):
        return np.eye(self.dim) - self.step * self.Q, -self.step * self.q

    def _regularity(self):
        sl = self.step * self.lipschitz
        if sl >= 2.0 - 1e-12:
            return Regularity.nonexpansive()
        return Regularity.averaged(max(sl / 2.0, ALPHA_FLOOR))

    def __repr__(self):
        return f"GradientStep(dim={self.dim}, step={self.step})"


class Resolvent(Operator):
    """Resolvent ``(Id + A)^{-1}`` of an affine monotone operator.

    ``I + Q`` has symmetric part bounded below by the identity, so it is
    always invertible and the inverse is precomputed once.
    """

    def __init__(self, operator: MonotoneAffine):
        if not isinstance(operator, MonotoneAffine):
            raise ValidationError("Resolvent wraps a MonotoneAffine")
        self.operator = operator
        self.dim = operator.dim
        K = np.linalg.inv(np.eye(self.dim) + operator.Q)
        self._K = K
        self._Kq = K @ operator.q

    def _apply(self, x):
        return _matvec(self._K, x) - self._Kq

    def _affine_pair(self):
        return self._K, -self._Kq

    def _regularity(self):
        return Regularity.firmly()

    def __repr__(self):
        return f"Resolvent(dim={self.dim})"


class ReflectedResolvent(Operator):
    """Reflected resolvent ``2 (Id + A)^{-1} - Id``; nonexpansive, and averaged
    with constant ``1/(1 + mu)`` when a cocoercivity modulus ``mu > 0`` of the
    underlying operator is certified."""

    def __init__(self, operator: MonotoneAffine):
        if not isinstance(operator, MonotoneAffine):
            raise ValidationError("ReflectedResolvent wraps a MonotoneAffine")
        self.operator = operator
        self.resolvent = Resolvent(operator)
        self.dim = operator.dim

    def _apply(self, x):
        # Exactly 2 J x - x, sharing the resolvent's arithmetic.
        return 2.0 * self.resolvent._apply(x) - x

    def _affine_pair(self):
        J = self.resolvent
        return 2.0 * J._K - np.eye(self.dim), -2.0 * J._Kq

    def _regularity(self):
        mu, exact = cocoercivity_modulus(self.operator)
        if mu > 0.0:
            return Regularity.averaged(1.0 / (1.0 + mu))
        return Regularity.nonexpansive()

    def __repr__(self):
        return f"ReflectedResolvent(dim={self.dim})"


class Composition(Operator):
    """Composition applying ``parts[0]`` first, then each later part in order."""

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValidationError("composition needs at least one part")
        for p in parts:
            if not isinstance(p, Operator):
                raise ValidationError("composition parts must be operators")
            if p.dim != parts[0].dim:
                raise ValidationError("composition parts must share one ambient dimension")
        self.parts = parts
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

    def _displacement_cover(self, cover):
        # x - T_m..T_1 x telescopes into the parts' displacements along the orbit
        return Cover.weighted_sum(self.parts, np.ones(len(self.parts)), cover)

    @cached_property
    def is_averaged(self):
        return all(p.is_averaged for p in self.parts)

    def _regularity(self):
        if len(self.parts) == 1:
            return self.parts[0].regularity()
        if not self.is_averaged:
            return Regularity.nonexpansive()
        regs = [p.regularity() for p in self.parts]
        alpha = regs[0].averagedness
        for r in regs[1:]:
            a2 = r.averagedness
            alpha = (alpha + a2 - 2.0 * alpha * a2) / (1.0 - alpha * a2)
        return Regularity.averaged(alpha)

    def __repr__(self):
        return f"Composition({len(self.parts)} parts, dim={self.dim})"


class ConvexCombination(Operator):
    """Pointwise convex combination ``x -> sum_i w_i parts[i](x)``."""

    def __init__(self, weights, parts):
        weights = as_vector(weights)
        parts = tuple(parts)
        if weights.size != len(parts) or not parts:
            raise ValidationError("need one positive weight per part")
        if np.any(weights <= 0.0) or np.any(weights >= 1.0 + 1e-12):
            raise ValidationError("weights must lie in (0, 1)")
        if abs(float(np.sum(weights)) - 1.0) > 1e-12:
            raise ValidationError("weights must sum to one")
        for p in parts:
            if not isinstance(p, Operator):
                raise ValidationError("combination parts must be operators")
            if p.dim != parts[0].dim:
                raise ValidationError("combination parts must share one ambient dimension")
        weights = weights.copy()
        weights.setflags(write=False)
        self.weights = weights
        self.parts = parts
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

    def _displacement_cover(self, cover):
        # x - sum w_i T_i x = sum w_i (x - T_i x)
        return Cover.weighted_sum(self.parts, self.weights, cover)

    is_averaged = Composition.is_averaged  # averaged iff every part is

    def _regularity(self):
        if not self.is_averaged:
            return Regularity.nonexpansive()
        regs = [p.regularity() for p in self.parts]
        if all(r.kind == "firmly" for r in regs):
            return Regularity.firmly()
        alpha = float(np.sum(self.weights * np.array([r.averagedness for r in regs])))
        return Regularity.averaged(min(max(alpha, ALPHA_FLOOR), 1.0 - 1e-15))

    def __repr__(self):
        return f"ConvexCombination({len(self.parts)} parts, dim={self.dim})"


def minimal_averagedness(M, tol: float = NORM_TOL) -> float | None:
    """Smallest ``alpha`` in (0, 1) writing ``M = (1-alpha) Id + alpha N`` with
    ``N`` nonexpansive, found by bisection to width 1e-10.

    Returns ``None`` when no usable constant below :data:`ALPHA_CEILING`
    exists (the map is treated as merely nonexpansive), and the floor
    :data:`ALPHA_FLOOR` for identity-like maps.
    """
    M = as_matrix(M, square=True)
    if tol < 0:
        raise ValidationError("tolerance must be nonnegative")
    if _spectral_norm(M) > 1.0 + tol:
        raise ValidationError("matrix has spectral norm above one: not nonexpansive")
    return _bisect_averagedness(M, tol)


def _bisect_averagedness(M: np.ndarray, tol: float) -> float | None:
    """:func:`minimal_averagedness` of a finite square matrix, without its norm check."""
    if _averaged_at(M, ALPHA_FLOOR, tol):
        return ALPHA_FLOOR
    if not _averaged_at(M, ALPHA_CEILING, tol):
        return None
    lo, hi = ALPHA_FLOOR, ALPHA_CEILING
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if _averaged_at(M, mid, tol):
            hi = mid
        else:
            lo = mid
    return hi


def cocoercivity_modulus(A: MonotoneAffine, tol: float = NORM_TOL) -> tuple[float, bool]:
    """Certified ``mu`` with ``<u, Qu> >= mu ||Qu||^2`` for all ``u``.

    Returns ``(mu, exact)``.  For symmetric ``Q`` the largest modulus is
    ``1 / lmax(Q)`` (capped at :data:`MU_CAP` for the zero map).  For
    nonsymmetric ``Q`` a conservative valid bound
    ``lmin((Q+Q^T)/2) / smax(Q)^2`` is certified and flagged inexact;
    a vanishing symmetric part yields ``mu = 0`` (no certificate).
    """
    if not isinstance(A, MonotoneAffine):
        raise ValidationError("cocoercivity_modulus expects a MonotoneAffine")
    Q = A.Q
    if _spectral_norm(Q) <= tol:
        return MU_CAP, True
    if np.max(np.abs(Q - Q.T)) <= tol:
        lam_max = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[-1])
        if lam_max <= 1.0 / MU_CAP:
            return MU_CAP, True
        return min(1.0 / lam_max, MU_CAP), True
    lam_min = float(np.linalg.eigvalsh((Q + Q.T) / 2.0)[0])
    if lam_min <= tol:
        return 0.0, False
    return min(lam_min / _spectral_norm(Q) ** 2, MU_CAP), False


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

    Returns ``None`` when a projector of a non-affine set occurs anywhere in
    the tree.  The collapsed map is cross-checked against tree evaluation at
    dim+11 points (0, the unit vectors, ten seeded Gaussian samples), stacked
    into one tree walk, within a relative 1e-9.  A disagreement, or a
    collapsed ``M`` or ``b`` that is not finite (an overflow), raises
    ``NumericalError``; only agreement is cached.  The parts were validated
    nonexpansive when they were built, so the collapsed map is not validated
    again, and its ``norm`` is computed on first read.
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

