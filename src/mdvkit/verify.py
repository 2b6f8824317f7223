"""Executable checks for displacement-range identities of operator compositions.

Each check computes both sides of one identity or inequality, reduces the
disagreement to a single nonnegative ``discrepancy``, and reports pass/fail
against a pinned tolerance.  Checks whose mathematical hypotheses are not
certified still run but carry ``hypothesis_met=False`` so callers never
mistake a vacuous pass (or an expected counterexample failure) for evidence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import displacement as disp
from .errors import ValidationError
from .numeric import (
    AffineSubspace,
    _is_integer,
    affine_discrepancy,
    as_real,
    as_vector,
    minkowski_sum_affine,
    orthonormal_range_basis,
)
from .operators import (
    AffineMap,
    Composition,
    ConvexCombination,
    GradientStep,
    MonotoneAffine,
    Operator,
    ReflectedResolvent,
    Resolvent,
    SetProjector,
    _composition_hypothesis,
    _parts,
    _spectral_norm,
    cocoercivity_modulus,
    flatten_to_affine,
)
from .sets import Ball, Box, ConvexSet, Halfspace, full_space

#: Default tolerance for identities evaluated through the exact affine solver.
EXACT_TOL = 1e-9

#: Default tolerance for identities evaluated through fixed-point iteration.
ITERATIVE_TOL = 1e-4


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check; ``passed`` is pinned to ``discrepancy <= tolerance``.

    ``lhs``, ``rhs`` and ``witness`` hold the values the check computed
    (``AffineSubspace``, arrays, numbers, or dicts and lists of these), never
    an array the caller passed in or a view of a larger one;
    :func:`mdvkit.scenario.stringify_numbers` renders them for reports.
    """

    check_name: str
    passed: bool
    lhs: object
    rhs: object
    discrepancy: float
    tolerance: float
    witness: object = None
    seed: int = 0
    hypothesis_met: bool = True
    notes: str = ""

    def __post_init__(self):
        if self.passed != (self.discrepancy <= self.tolerance):
            raise ValidationError("report invariant violated: passed != (discrepancy <= tolerance)")


def _make(check_name, lhs, rhs, discrepancy, tolerance, witness=None, seed=0,
          hypothesis_met=True, notes="") -> CheckReport:
    discrepancy = float(discrepancy)
    tolerance = as_real(tolerance, "tol", positive=True)
    return CheckReport(
        check_name=check_name,
        passed=bool(discrepancy <= tolerance),
        lhs=lhs,
        rhs=rhs,
        discrepancy=discrepancy,
        tolerance=tolerance,
        witness=witness,
        seed=int(seed),
        hypothesis_met=bool(hypothesis_met),
        notes=notes,
    )


def _monotone(*ops) -> None:
    """Refuse operands that are not :class:`MonotoneAffine` of one dimension."""
    if not all(isinstance(op, MonotoneAffine) for op in ops):
        raise ValidationError("expected MonotoneAffine operands")
    if any(op.dim != ops[0].dim for op in ops):
        raise ValidationError("operands must share one ambient dimension")


def _range(q: np.ndarray, Q: np.ndarray) -> AffineSubspace:
    """The range ``q + ran Q`` of ``x -> Qx + q``, for a finite ``q`` and ``Q``."""
    return AffineSubspace._computed(q, orthonormal_range_basis(Q))


@functools.lru_cache(maxsize=8)
def _composed(parts: tuple) -> Composition:
    """One ``Composition`` per tuple of part objects (innermost first), so that
    the composition checks of one instance flatten and solve it once (an
    instance asks for at most ``len(ops) + 1`` orders);
    :func:`builtin_suite` and :func:`mdvkit.scenario.run_scenario_checks`
    clear it when they return."""
    return Composition(parts)


def _estimate(T: Operator, max_iter: int, tol: float) -> disp.DisplacementEstimate:
    """The estimate a check compares: the exact route when ``T`` flattens,
    else :func:`mdvkit.displacement.displacement_iterative`, never an answer
    read off the range calculus that the checks test."""
    disp._check_budget(max_iter, tol)
    if flatten_to_affine(T) is not None:
        return disp.displacement_exact_affine(T)
    return disp.displacement_iterative(T, max_iter=max_iter, tol=tol)


def check_range_formula_composition(ops, tol: float = EXACT_TOL, seed: int = 0) -> CheckReport:
    """Displacement range of a composition vs Minkowski sum of part ranges."""
    ops = _parts(ops, "check")
    met, notes = _composition_hypothesis(ops)
    lhs = disp.displacement_range_affine(_composed(ops))
    rhs = functools.reduce(minkowski_sum_affine, map(disp.displacement_range_affine, ops))
    d = affine_discrepancy(lhs, rhs)
    return _make("range_formula_composition", lhs, rhs, d, tol,
                 seed=seed, hypothesis_met=met, notes=notes)


def check_permutation_displacement(ops, sigma, tol: float = EXACT_TOL, seed: int = 0) -> CheckReport:
    """Minimal displacement vector is invariant under permuting the factors."""
    ops = _parts(ops, "check")
    sigma = list(sigma)
    if not all(map(_is_integer, sigma)) or sorted(sigma) != list(range(len(ops))):
        raise ValidationError("sigma must be a permutation of the operator indices")
    sigma = [int(i) for i in sigma]
    met, notes = _composition_hypothesis(ops)
    base, permuted = (disp.displacement_exact_affine(_composed(parts)).vector
                      for parts in (ops, tuple(ops[i] for i in sigma)))
    d = float(np.linalg.norm(base - permuted))
    return _make("permutation_displacement", base, permuted, d, tol,
                 witness=sigma, seed=seed, hypothesis_met=met, notes=notes)


def check_norm_bound_composition(ops, tol: float = EXACT_TOL, seed: int = 0) -> CheckReport:
    """Norm of the composed mdv is at most the sum of the part mdv norms."""
    ops = _parts(ops, "check")
    met, notes = _composition_hypothesis(ops)
    lhs = disp.displacement_exact_affine(_composed(ops)).norm
    rhs = float(sum(disp.displacement_exact_affine(op).norm for op in ops))
    d = max(0.0, lhs - rhs)
    return _make("norm_bound_composition", lhs, rhs, d, tol,
                 seed=seed, hypothesis_met=met, notes=notes)


def check_cyclic_norm(ops, tol: float = EXACT_TOL, seed: int = 0,
                      max_iter: int = disp.DEFAULT_MAX_ITER,
                      iter_tol: float = disp.DEFAULT_TOL) -> CheckReport:
    """All cyclic shifts of a composition share one mdv norm (no averagedness needed)."""
    ops = _parts(ops, "check")
    norms = []
    for k in range(len(ops)):
        shifted = _composed(ops[k:] + ops[:k])
        norms.append(_estimate(shifted, max_iter, iter_tol).norm)
    d = max(norms) - min(norms)
    return _make("cyclic_norm", max(norms), min(norms), d, tol, witness=norms, seed=seed)


def check_noncyclic_counterexample(u, tol: float = 1e-10, seed: int = 0) -> CheckReport:
    """A noncyclic reorder changes the mdv: one order gives 0, the other 2u."""
    u = as_vector(u)
    if float(np.linalg.norm(u)) == 0.0:
        raise ValidationError("u must be nonzero; the two orders coincide otherwise")
    eye = np.eye(u.size)
    r1 = AffineMap(-eye, np.zeros(u.size))     # x -> -x
    r2 = AffineMap(-eye, u)                    # x -> -x + u
    r3 = AffineMap(eye, -u)                    # x -> x - u
    v_cyclic = disp.displacement_exact_affine(Composition([r1, r2, r3])).vector
    v_swapped = disp.displacement_exact_affine(Composition([r2, r1, r3])).vector
    d = max(float(np.linalg.norm(v_cyclic)), float(np.linalg.norm(v_swapped - 2.0 * u)))
    lhs = {"last_first_second": v_cyclic, "second_first_last": v_swapped}
    rhs = {"last_first_second": np.zeros(u.size), "second_first_last": 2.0 * u}
    return _make("noncyclic_counterexample", lhs, rhs, d, tol, witness=u.copy(), seed=seed)


def check_three_op_closed_form(deltas, a, tol: float = 1e-10, seed: int = 0) -> CheckReport:
    """Exact mdv of three scaled translates matches the sign-product closed form.

    For parts ``x -> delta_i x - a_i`` with ``delta_i`` in {-1, 0, 1}, the mdv
    of the composition (first part innermost) is
    ``a_3 + delta_3 a_2 + delta_3 delta_2 a_1`` when the delta product is one,
    and zero otherwise.
    """
    deltas = list(deltas)
    if len(deltas) != 3 or not all(_is_integer(d) and d in (-1, 0, 1) for d in deltas):
        raise ValidationError("deltas must be three values in {-1, 0, 1}")
    deltas = [int(d) for d in deltas]
    vecs = [as_vector(v) for v in a]
    if len(vecs) != 3 or any(v.size != vecs[0].size for v in vecs):
        raise ValidationError("a must be three vectors of one dimension")
    dim = vecs[0].size
    eye = np.eye(dim)
    parts = [AffineMap(d * eye, -v) for d, v in zip(deltas, vecs)]
    got = disp.displacement_exact_affine(Composition(parts)).vector
    if deltas[0] * deltas[1] * deltas[2] == 1:
        expected = vecs[2] + deltas[2] * vecs[1] + deltas[2] * deltas[1] * vecs[0]
    else:
        expected = np.zeros(dim)
    d = float(np.linalg.norm(got - expected))
    return _make("three_op_closed_form", got, expected, d, tol,
                 witness={"deltas": deltas}, seed=seed)


def check_convex_combination(ops, weights, tol: float = EXACT_TOL, seed: int = 0,
                             max_iter: int = disp.DEFAULT_MAX_ITER,
                             iter_tol: float = disp.DEFAULT_TOL) -> CheckReport:
    """Convex combinations: weighted-Minkowski range identity and mdv norm bounds.

    Verifies (for affine parts) that the displacement range of the combination
    equals the weighted Minkowski sum of the part ranges, and (always) the
    chain ``||mdv(combo)|| <= ||sum_i w_i mdv_i|| <= sum_i w_i ||mdv_i||``.
    Nonexpansiveness alone suffices; no averagedness hypothesis.  The first
    link allows for the certified ``error_bound`` of each estimate.
    """
    ops = _parts(ops, "check")
    weights = as_vector(weights, len(ops))
    combo = ConvexCombination(weights, ops)
    all_affine = all(flatten_to_affine(op) is not None for op in ops)
    ests = [_estimate(op, max_iter, iter_tol) for op in ops]
    est_combo = _estimate(combo, max_iter, iter_tol)
    mdvs = [est.vector for est in ests]
    v_combo = est_combo.vector
    slack = (est_combo.error_bound or 0.0) + sum(
        float(w) * (est.error_bound or 0.0) for w, est in zip(weights, ests))
    notes = ""
    if all_affine:
        lhs = disp.displacement_range_affine(combo)
        rhs = functools.reduce(minkowski_sum_affine, (
            disp.displacement_range_affine(op).scaled(w) for w, op in zip(weights, ops)))
        d_range = affine_discrepancy(lhs, rhs)
    else:
        d_range = 0.0
        notes = "range equality skipped: non-affine part present"
        lhs, rhs = v_combo, None
    weighted_sum = np.zeros(ops[0].dim)
    weighted_norms = 0.0
    for w, v in zip(weights, mdvs):
        weighted_sum += w * v
        weighted_norms += float(w) * float(np.linalg.norm(v))
    mid = float(np.linalg.norm(weighted_sum))
    d_first = max(0.0, float(np.linalg.norm(v_combo)) - mid - slack)
    d_second = max(0.0, mid - weighted_norms)
    d = max(d_range, d_first, d_second)
    return _make("convex_combination", lhs, rhs, d, tol,
                 witness={"weights": weights.copy(),
                          "mdv_norms": [float(np.linalg.norm(v)) for v in mdvs]},
                 seed=seed, notes=notes)


def check_zero_sum_corollary(ops, weights, tol: float = 1e-8, seed: int = 0,
                             max_iter: int = disp.DEFAULT_MAX_ITER,
                             iter_tol: float = disp.DEFAULT_TOL) -> CheckReport:
    """If the weighted part mdvs cancel, the combination's mdv vanishes.

    The cancellation is judged within 1e-10 plus the parts' certified
    ``error_bound``s, weighted as :func:`check_convex_combination` weights
    its slack: estimates that cancel only within their bounds still meet it.
    """
    ops = _parts(ops, "check")
    weights = as_vector(weights, len(ops))
    ests = [_estimate(op, max_iter, iter_tol) for op in ops]
    cancel = np.zeros(ops[0].dim)
    for w, est in zip(weights, ests):
        cancel += w * est.vector
    cancel_norm = float(np.linalg.norm(cancel))
    slack = sum(float(w) * (est.error_bound or 0.0) for w, est in zip(weights, ests))
    met = cancel_norm <= 1e-10 + slack
    notes = "" if met else (
        f"hypothesis unmet: weighted mdvs sum to norm {cancel_norm:.3e}, expected 0"
    )
    v_combo = _estimate(ConvexCombination(weights, ops), max_iter, iter_tol).vector
    d = float(np.linalg.norm(v_combo))
    return _make("zero_sum_corollary", v_combo, np.zeros(ops[0].dim), d, tol,
                 witness={"weighted_mdv_sum_norm": cancel_norm}, seed=seed,
                 hypothesis_met=met, notes=notes)


def check_cocoercive_averaged_equivalence(A: MonotoneAffine, mu: float | None = None,
                                          samples: int = 1000, seed: int = 0,
                                          tol: float = 1e-8) -> CheckReport:
    """Cocoercivity of the operator matches averagedness of its reflection.

    Both inequalities are quadratic forms in the difference ``d = x - y``, so
    each holds for every ``d`` exactly when the smallest eigenvalue of its
    matrix is nonnegative: ``sym(Q) - mu Q^T Q`` for
    ``<d, Qd> >= mu |Qd|^2``, and ``(1/mu)(I - M^T M) - (I - M)^T (I - M)``
    for the reflected resolvent ``x -> Mx + b`` being ``1/(1 + mu)``-averaged.
    The witness is a unit eigenvector of the smallest cocoercivity
    eigenvalue.  ``mu`` defaults to the certified modulus of
    :func:`cocoercivity_modulus`; ``samples`` must be a positive integer and
    no longer changes the answer.
    """
    _monotone(A)
    mu = as_real(cocoercivity_modulus(A) if mu is None else mu, "mu", positive=True)
    if not _is_integer(samples) or samples < 1:
        raise ValidationError("samples must be an integer of at least one")
    Q = A.Q
    M = ReflectedResolvent(A).M
    eye = np.eye(A.dim)
    w, v = np.linalg.eigh((Q + Q.T) / 2.0 - mu * (Q.T @ Q))
    worst_coco = float(w[0])
    D = eye - M                                      # the displacement's linear part
    worst_avg = float(np.linalg.eigvalsh((eye - M.T @ M) / mu - D.T @ D)[0])
    d = max(0.0, -worst_coco, -worst_avg)
    return _make(
        "cocoercive_averaged_equivalence",
        {"min_cocoercivity_slack": worst_coco, "min_averagedness_slack": worst_avg},
        {"mu": mu}, d, tol, witness=v[:, 0].copy(), seed=seed)


def check_brezis_haraux_affine(A: MonotoneAffine, B: MonotoneAffine,
                               tol: float = EXACT_TOL, seed: int = 0) -> CheckReport:
    """Range of a sum of monotone affine maps equals the sum of the ranges.

    The identity needs one summand cocoercive with full domain; when neither
    operator certifies a positive modulus the check still runs but is flagged.
    """
    _monotone(A, B)
    mu_a = cocoercivity_modulus(A)
    mu_b = cocoercivity_modulus(B)
    met = (mu_a > 0.0) or (mu_b > 0.0)
    notes = "" if met else "hypothesis unmet: neither operator certified cocoercive"
    lhs = _range(as_vector(A.q + B.q), A.Q + B.Q)
    rhs = minkowski_sum_affine(_range(A.q, A.Q), _range(B.q, B.Q))
    d = affine_discrepancy(lhs, rhs)
    return _make("brezis_haraux_affine", lhs, rhs, d, tol,
                 seed=seed, hypothesis_met=met, notes=notes)


def check_translation_formula(A: MonotoneAffine, B: MonotoneAffine, y,
                              samples: int = 200, seed: int = 0,
                              tol: float = EXACT_TOL) -> CheckReport:
    """Translation identity for composed reflected resolvents.

    Shifting A's output and B's argument by ``y`` conjugates the composition
    by the translation ``t_y: x -> x + y``:  ``R_B' R_A' = t_y R_B R_A t_y``
    where ``A' = A(.) - y`` and ``B' = B(. - y)``, which is the displacement
    identity ``x - R_B' R_A' x = -2y + (x+y) - R_B R_A (x+y)``.  Both sides
    are affine, so comparing their flattened ``(M, b)`` decides it; the
    discrepancy is ``max(max |dM|, |db|)``.  ``max_matrix_error`` is 0 by
    construction: a shift leaves ``Q``, so both sides multiply the same
    ``2K - I`` factors bit for bit, and ``offset_error`` carries the
    identity's content.  ``samples`` must be a positive integer and no longer
    changes the answer.
    """
    _monotone(A, B)
    y = as_vector(y, A.dim)
    if not _is_integer(samples) or samples < 1:
        raise ValidationError("samples must be an integer of at least one")
    shift = AffineMap.translation(y)
    left = flatten_to_affine(Composition([ReflectedResolvent(A.shift_output(y)),
                                          ReflectedResolvent(B.shift_input(y))]))
    right = flatten_to_affine(Composition([shift, ReflectedResolvent(A),
                                           ReflectedResolvent(B), shift]))
    matrix_err = float(np.max(np.abs(left.M - right.M)))
    offset_err = float(np.linalg.norm(left.b - right.b))
    return _make("translation_formula",
                 {"max_matrix_error": matrix_err, "offset_error": offset_err},
                 {"shift": y.copy()}, max(matrix_err, offset_err), tol, seed=seed)


def check_range_identity_reflected(A: MonotoneAffine, tol: float = EXACT_TOL,
                                   seed: int = 0) -> CheckReport:
    """Doubled operator range = doubled resolvent-displacement range
    = reflected-resolvent displacement range."""
    _monotone(A)
    ran_twice = _range(A.q, A.Q).scaled(2.0)
    resolvent_disp = disp.displacement_range_affine(Resolvent(A)).scaled(2.0)
    reflected_disp = disp.displacement_range_affine(ReflectedResolvent(A))
    d = max(
        affine_discrepancy(ran_twice, resolvent_disp),
        affine_discrepancy(ran_twice, reflected_disp),
        affine_discrepancy(resolvent_disp, reflected_disp),
    )
    return _make("range_identity_reflected", ran_twice, reflected_disp, d, tol, seed=seed)


def check_projected_gradient_bound(Q, q, C: ConvexSet, alpha: float,
                                   L: float | None = None, tol: float = ITERATIVE_TOL,
                                   max_iter: int = disp.DEFAULT_MAX_ITER,
                                   iter_tol: float = disp.DEFAULT_TOL,
                                   seed: int = 0) -> CheckReport:
    """Projected-gradient displacement norm obeys the scaled gradient-infimum bound.

    For ``T = P_C (Id - (alpha/L) grad f)`` with quadratic ``f`` the mdv norm
    is at most ``(alpha/L) inf ||grad f||``, the infimum being the exact
    distance from ``-q`` to the column space of ``Q``.
    """
    A = MonotoneAffine(Q, q)  # one eigendecomposition of sym(Q): L's and the step's
    alpha = as_real(alpha, "alpha")
    if not (0.0 < alpha < 2.0):
        raise ValidationError("alpha must lie in (0, 2)")
    if L is None:
        L = float(A._sym_eigvals[-1])
        if L <= 0.0:
            raise ValidationError("flat objective: supply the Lipschitz constant L explicitly")
    L = as_real(L, "L", positive=True)
    step = alpha / L
    T = Composition([GradientStep._of(A, step), SetProjector(C)])
    est = disp.displacement_iterative(T, max_iter=max_iter, tol=iter_tol)
    sol, *_ = np.linalg.lstsq(A.Q, -A.q, rcond=None)
    inf_grad = float(np.linalg.norm(A.Q @ sol + A.q))
    bound = step * inf_grad
    d = max(0.0, est.norm - bound)
    return _make("projected_gradient_bound", est.norm, bound, d, tol,
                 witness=est.vector, seed=seed,
                 notes=f"method={est.method}, iterations={est.iterations}")


# ---------------------------------------------------------------------------
# Random instance generation


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish orthogonal matrix from the QR factorization of a Gaussian."""
    g = rng.standard_normal((dim, dim))
    qm, rm = np.linalg.qr(g)
    signs = np.where(np.diag(rm) >= 0.0, 1.0, -1.0)
    return qm * signs


def random_averaged_affine(rng: np.random.Generator, dim: int,
                           norm: float = 0.95, shift_scale: float = 0.2) -> AffineMap:
    """Random affine map rescaled to the given spectral norm (averaged for
    norm < 1); the scaling SVD sets the norm, so no validation SVD follows."""
    if not abs(norm) <= 1.0:
        raise ValidationError("norm must be at most one: the map would be expansive")
    g = rng.standard_normal((dim, dim))
    M = (norm / _spectral_norm(g)) * g
    return AffineMap._collapsed(M, shift_scale * rng.standard_normal(dim))


def random_merely_nonexpansive_affine(rng: np.random.Generator, dim: int,
                                      shift_scale: float = 0.2) -> AffineMap:
    """Random affine map with an orthogonal linear part (spectral norm exactly one)."""
    return AffineMap(random_orthogonal(rng, dim), shift_scale * rng.standard_normal(dim))


def random_structured_averaged(rng: np.random.Generator, dim: int,
                               shift_scale: float = 0.2) -> AffineMap:
    """Translation, affine-subspace projector, or mild contraction (all averaged).

    These have rank-deficient displacement maps, so range identities are
    exercised on proper affine subspaces rather than the whole space.
    """
    kind = int(rng.integers(3))
    if kind == 0:
        return AffineMap.translation(shift_scale * rng.standard_normal(dim))
    if kind == 1:
        cols = int(rng.integers(1, dim))
        basis = orthonormal_range_basis(rng.standard_normal((dim, cols)))
        P = basis @ basis.T
        center = shift_scale * rng.standard_normal(dim)
        return AffineMap(P, center - P @ center)
    return random_averaged_affine(rng, dim, norm=0.5, shift_scale=shift_scale)


def random_psd_monotone(rng: np.random.Generator, dim: int,
                        singular: bool | None = None) -> MonotoneAffine:
    """Random symmetric PSD monotone affine operator with O(1) top eigenvalue."""
    g = rng.standard_normal((dim, dim))
    w, v = np.linalg.eigh(g.T @ g)
    if singular is None:
        singular = bool(rng.random() < 0.5)
    if singular:
        w[0] = 0.0
    w *= (0.5 + 1.5 * rng.random()) / w[-1]
    Q = (v * w) @ v.T
    Q = (Q + Q.T) / 2.0
    return MonotoneAffine(Q, rng.standard_normal(dim))


def random_projector_translation_mix(rng: np.random.Generator, dim: int,
                                     count: int = 3) -> list[Operator]:
    """Mix of box/ball/halfspace projectors and a translation (all averaged)."""
    ops: list[Operator] = []
    kinds = rng.permutation(["box", "ball", "halfspace"])[: count - 1]
    for kind in kinds:
        center = 0.5 * rng.standard_normal(dim)
        if kind == "box":
            half = 0.4 + 0.6 * rng.random(dim)
            ops.append(SetProjector(Box(center - half, center + half)))
        elif kind == "ball":
            ops.append(SetProjector(Ball(center, 0.5 + rng.random())))
        else:
            normal = rng.standard_normal(dim)
            ops.append(SetProjector(Halfspace(normal, float(normal @ center))))
    ops.append(AffineMap.translation(0.2 * rng.standard_normal(dim)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _instance_rng(seed: int, idx: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=abs(int(seed)), spawn_key=(idx,)))


def _instance_seed(seed: int, idx: int) -> int:
    return (abs(int(seed)) * 1_000_003 + idx) % (2**31)


def run_randomized_suite(dim: int = 5, m: int = 3, count: int = 10,
                         seed: int = 0, shift_scale: float = 0.2) -> list[CheckReport]:
    """Seeded battery over random instances; bit-identical for a fixed seed.

    Instances cycle through three regimes: all-averaged contractions, exactly
    one orthogonal (merely nonexpansive) factor at a random position, and
    structured averaged maps with rank-deficient displacement ranges.  Reports
    come back ordered canonically by check name then instance seed.
    """
    if not all(map(_is_integer, (dim, m, count, seed))):
        raise ValidationError("dim, m, count and seed must be integers")
    if m < 2:
        raise ValidationError("need at least two operators per composition")
    if count < 1 or dim < 2:
        raise ValidationError("count and dim must be positive (dim at least 2)")
    reports: list[CheckReport] = []
    for idx in range(count):
        rng = _instance_rng(seed, idx)
        inst_seed = _instance_seed(seed, idx)
        regime = idx % 3
        if regime == 0:
            ops = [random_averaged_affine(rng, dim, shift_scale=shift_scale) for _ in range(m)]
        elif regime == 1:
            ops = [random_averaged_affine(rng, dim, shift_scale=shift_scale) for _ in range(m)]
            # Interior positions exist for m >= 3 and must be hit over the run.
            position = int(rng.integers(m))
            ops[position] = random_merely_nonexpansive_affine(rng, dim, shift_scale=shift_scale)
        else:
            ops = [random_structured_averaged(rng, dim, shift_scale=shift_scale) for _ in range(m)]

        sigma = [int(i) for i in rng.permutation(m)]
        weights = 0.1 + rng.random(m)
        weights /= weights.sum()

        reports.append(check_range_formula_composition(ops, seed=inst_seed))
        reports.append(check_permutation_displacement(ops, sigma, seed=inst_seed))
        reports.append(check_norm_bound_composition(ops, seed=inst_seed))
        reports.append(check_cyclic_norm(ops, seed=inst_seed))
        reports.append(check_convex_combination(ops, weights, seed=inst_seed))

        shifts = [shift_scale * rng.standard_normal(dim) for _ in range(m - 1)]
        w_translate = 0.1 + rng.random(m)
        w_translate /= w_translate.sum()
        closing = -sum(w * s for w, s in zip(w_translate[:-1], shifts)) / w_translate[-1]
        translations = [AffineMap.translation(-s) for s in shifts]
        translations.append(AffineMap.translation(-closing))
        reports.append(check_zero_sum_corollary(translations, w_translate, seed=inst_seed))

        a_mono = random_psd_monotone(rng, dim)
        b_mono = random_psd_monotone(rng, dim)
        reports.append(check_cocoercive_averaged_equivalence(a_mono, seed=inst_seed))
        reports.append(check_brezis_haraux_affine(a_mono, b_mono, seed=inst_seed))
        reports.append(check_translation_formula(
            a_mono, b_mono, rng.standard_normal(dim), seed=inst_seed))
        reports.append(check_range_identity_reflected(a_mono, seed=inst_seed))
    reports.sort(key=lambda r: (r.check_name, r.seed))
    return reports


def _two_map_counterexample(u1, u2, tol: float = 1e-12, seed: int = 0) -> CheckReport:
    """Order dependence of the mdv for two reflection-translations ``x -> -x - u``."""
    u1 = as_vector(u1)
    u2 = as_vector(u2, u1.size)
    eye = np.eye(u1.size)
    r1 = AffineMap(-eye, -u1)
    r2 = AffineMap(-eye, -u2)
    v_21 = disp.displacement_exact_affine(Composition([r1, r2])).vector
    v_12 = disp.displacement_exact_affine(Composition([r2, r1])).vector
    d = max(float(np.linalg.norm(v_21 - (u2 - u1))), float(np.linalg.norm(v_12 - (u1 - u2))))
    return _make("two_map_counterexample", {"second_after_first": v_21, "first_after_second": v_12},
                 {"second_after_first": u2 - u1, "first_after_second": u1 - u2},
                 d, tol, seed=seed)


def builtin_suite(seed: int = 42, dim: int = 5, randomized_count: int = 100,
                  cyclic_count: int = 20, closed_form_triples: int = 5,
                  cocoercive_count: int = 50,
                  max_iter: int = disp.DEFAULT_MAX_ITER) -> list[CheckReport]:
    """The full reproduction battery behind ``mdvkit verify --builtin-suite``.

    Includes both counterexamples (expected-failure reports are flagged
    hypothesis-unmet so they never gate the exit code), the closed-form sweep,
    randomized composition/combination/resolvent trials, iterative cyclic-norm
    trials on projector mixes, and the projected-gradient corollary cases.
    """
    counts = (randomized_count, cyclic_count, closed_form_triples, cocoercive_count)
    if not all(map(_is_integer, (seed, dim, *counts))) or min(counts) < 0:
        raise ValidationError("seed and dim must be integers, and the section counts"
                              " integers of at least zero")
    reports: list[CheckReport] = []
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])

    reports.append(_two_map_counterexample(e1, e2, seed=seed))
    reports.append(check_noncyclic_counterexample(e1, seed=seed))

    # The two-map instance also demonstrates the sharpness of the averagedness
    # hypothesis: with both factors merely nonexpansive the range formula is
    # expected to fail, and the report must say the hypothesis is unmet.
    eye2 = np.eye(2)
    reports.append(check_range_formula_composition(
        [AffineMap(-eye2, -e1), AffineMap(-eye2, -e2)], seed=seed))

    rng = np.random.default_rng(np.random.SeedSequence(entropy=abs(int(seed)), spawn_key=(9,)))
    for t in range(closed_form_triples):
        a = [rng.standard_normal(3) for _ in range(3)]
        for d1 in (-1, 0, 1):
            for d2 in (-1, 0, 1):
                for d3 in (-1, 0, 1):
                    reports.append(check_three_op_closed_form(
                        (d1, d2, d3), a, seed=_instance_seed(seed, 27 * t)))

    for idx in range(cocoercive_count):
        rng_i = _instance_rng(seed, 10_000 + idx)
        a_mono = random_psd_monotone(rng_i, dim, singular=False)
        reports.append(check_cocoercive_averaged_equivalence(
            a_mono, seed=_instance_seed(seed, 10_000 + idx)))

    per_m = {2: randomized_count - 2 * (randomized_count // 3),
             3: randomized_count // 3, 4: randomized_count // 3}
    for m, cnt in per_m.items():
        if cnt:
            reports.extend(run_randomized_suite(dim=dim, m=m, count=cnt, seed=seed + m))

    for idx in range(cyclic_count):
        rng_i = _instance_rng(seed, 20_000 + idx)
        ops = random_projector_translation_mix(rng_i, 4)
        reports.append(check_cyclic_norm(
            ops, tol=1e-3, seed=_instance_seed(seed, 20_000 + idx), max_iter=max_iter))

    # Projected-gradient corollary, both named regimes: a linear objective on
    # the whole space (bound tight) and against an opposing halfspace (mdv 0).
    reports.append(check_projected_gradient_bound(
        np.zeros((2, 2)), e1, full_space(2), alpha=1.0, tol=1e-6, L=1.0, seed=seed))
    reports.append(check_projected_gradient_bound(
        np.zeros((2, 2)), e1, Halfspace(-e1, 0.0), alpha=1.0, tol=ITERATIVE_TOL, L=1.0, seed=seed))
    _composed.cache_clear()
    return reports


def suite_passed(reports: list[CheckReport]) -> bool:
    """Gate: every hypothesis-met check passed."""
    return all(r.passed for r in reports if r.hypothesis_met)
