"""Independent reference answers, computed from operator specs with numpy alone.

Specs are the kind-tagged dicts of the scenario grammar (``affine``,
``projector``, ``compose``, ``combo``, ``resolvent``, ``reflected``,
``gradstep``; ``compose`` lists factors innermost first).  Nothing here
imports mdvkit: an affine pipeline is collapsed by multiplying its factor
matrices directly, and non-affine pipelines are answered by closed forms.
"""

from __future__ import annotations

import numpy as np

#: Relative singular-value cutoff for the pseudo-inverse.  Composed orthogonal
#: factors leave rounding-level singular values (~1e-15) in ``I - M`` that the
#: default cutoff would keep as genuine directions.
PINV_RCOND = 1e-10

#: Set kinds whose projector has bounded range.
BOUNDED_SETS = ("box", "ball", "singleton")


def least_norm_displacement(M, b) -> np.ndarray:
    """Least-norm point of ``-b + ran(I - M)``, i.e. ``-(I - A A^+) b`` with ``A = I - M``."""
    M = np.asarray(M, dtype=float)
    b = np.asarray(b, dtype=float)
    A = np.eye(b.size) - M
    return -(b - A @ (np.linalg.pinv(A, rcond=PINV_RCOND) @ b))


def halfspace_translation_mdv(normal, shift) -> np.ndarray:
    """mdv of projecting onto ``{a.x <= beta}`` and translating by ``t``, in either order.

    ``ran(Id - T)`` is the ray ``{lam a - t : lam >= 0}`` whatever ``beta`` is,
    so the answer is ``max(0, a.t / |a|^2) a - t``.
    """
    a = np.asarray(normal, dtype=float)
    t = np.asarray(shift, dtype=float)
    return max(0.0, float(a @ t) / float(a @ a)) * a - t


def _kind(spec):
    (kind, body), = spec.items()
    return kind, body


def affine_pair(spec, dim: int):
    """``(M, b)`` with ``T x = M x + b`` for an all-affine spec, else ``None``."""
    kind, body = _kind(spec)
    eye = np.eye(dim)
    if kind == "affine":
        return np.array(body["M"], dtype=float), np.array(body["b"], dtype=float)
    if kind == "gradstep":
        s = float(body["step"])
        return eye - s * np.array(body["Q"], dtype=float), -s * np.array(body["q"], dtype=float)
    if kind in ("resolvent", "reflected"):
        K = np.linalg.inv(eye + np.array(body["Q"], dtype=float))
        Kq = K @ np.array(body["q"], dtype=float)
        if kind == "resolvent":
            return K, -Kq
        return 2.0 * K - eye, -2.0 * Kq
    if kind == "projector":
        set_kind, set_body = _kind(body)
        if set_kind == "singleton":
            return np.zeros((dim, dim)), np.array(set_body["point"], dtype=float)
        if set_kind == "affine_subspace":
            base = np.array(set_body["base"], dtype=float)
            vectors = set_body.get("basis", [])
            if not vectors:
                return np.zeros((dim, dim)), base
            V = np.array(vectors, dtype=float).T
            P = V @ np.linalg.pinv(V, rcond=PINV_RCOND)
            return P, base - P @ base
        return None
    if kind == "compose":
        M, b = eye, np.zeros(dim)
        for part in body:
            pair = affine_pair(part, dim)
            if pair is None:
                return None
            M, b = pair[0] @ M, pair[0] @ b + pair[1]
        return M, b
    if kind == "combo":
        M, b = np.zeros((dim, dim)), np.zeros(dim)
        for w, part in zip(body["weights"], body["parts"]):
            pair = affine_pair(part, dim)
            if pair is None:
                return None
            M, b = M + w * pair[0], b + w * pair[1]
        return M, b
    raise ValueError(f"unknown operator kind {kind!r}")


def _factors(spec):
    kind, body = _kind(spec)
    if kind != "compose":
        return [spec]
    return [f for part in body for f in _factors(part)]


def _projector_kind(spec):
    kind, body = _kind(spec)
    return _kind(body)[0] if kind == "projector" else None


def _translation(spec, dim: int):
    kind, body = _kind(spec)
    if kind == "affine" and np.array_equal(np.array(body["M"], dtype=float), np.eye(dim)):
        return np.array(body["b"], dtype=float)
    return None


def reference_mdv(spec, dim: int):
    """Minimal displacement vector of ``spec``, or ``None`` when no reference applies.

    * All-affine pipelines: :func:`least_norm_displacement` of the collapsed map.
    * A composition with a bounded factor (box, ball or singleton projector):
      zero, because a fixed point exists (Brouwer's theorem on the cyclic
      shift that applies the bounded factor last maps that compact convex
      set into itself).
    * A halfspace projector and a translation, in either order:
      :func:`halfspace_translation_mdv`.
    * A convex combination with a singleton-projector part: zero, because the
      combination is a strict contraction.
    """
    pair = affine_pair(spec, dim)
    if pair is not None:
        return least_norm_displacement(*pair)
    kind, body = _kind(spec)
    if kind == "compose":
        factors = _factors(spec)
        if any(_projector_kind(f) in BOUNDED_SETS for f in factors):
            return np.zeros(dim)
        if len(factors) == 2:
            for proj, other in (factors, factors[::-1]):
                shift = _translation(other, dim)
                if _projector_kind(proj) == "halfspace" and shift is not None:
                    return halfspace_translation_mdv(_kind(proj)[1]["halfspace"]["normal"], shift)
    if kind == "combo" and any(_projector_kind(p) == "singleton" for p in body["parts"]):
        return np.zeros(dim)
    return None
