"""The two least-squares solvers: QR rejecting dependent columns left to right
(`_householder`) for OLS and the Hannan-Rissanen start, and Levenberg-Marquardt
(`minimize`; Marquardt 1963, Hagan and Menhaj 1994) that fits both models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# A column whose part orthogonal to the columns before it has a norm at most
# this share of its own norm counts as dependent, whatever its unit.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class MinimizeResult:
    """Outcome of `minimize`: the final point and sum of squares, the
    evaluation and iteration counts, and why the search stopped."""

    x: np.ndarray
    fun: float
    nfev: int
    nit: int
    success: bool
    message: str


def minimize(residuals, x0: np.ndarray, max_iterations: int, xatol: float,
             fatol: float, damping: float) -> MinimizeResult:
    """Levenberg-Marquardt minimisation of a sum of squared residuals.

    ``residuals(x)`` returns the residual vector at ``x`` and a function of
    no arguments that returns its Jacobian there.  Each iteration solves
    ``(J'J + lam * diag(J'J)) step = -J'e``, with ``lam`` starting at
    ``damping``; the step is taken when the sum of squares does not rise,
    and ``lam`` then falls threefold, otherwise it rises tenfold and the
    step is tried again.  The search converges when a proposed step's
    largest component is at most ``xatol`` or two accepted steps in a row
    each lower the sum of squares by at most ``fatol`` relative to its
    previous value.  ``nfev`` counts every call of
    ``residuals``.
    """
    x = np.array(x0, dtype=float)
    e, jacobian = residuals(x)
    nfev, iteration = 1, 0
    css = float(e @ e)

    def result(success: bool, message: str) -> MinimizeResult:
        return MinimizeResult(x=x, fun=css, nfev=nfev, nit=iteration,
                              success=success, message=message)

    if not np.isfinite(css):
        return result(False, "residuals are not finite at the starting point")
    lam, small_before = damping, False
    jac = jacobian()
    for iteration in range(1, max_iterations + 1):
        if jac is not None:  # a new point; a rejected step solves these again
            curvature, gradient = jac.T @ jac, jac.T @ e
            scale = np.diag(curvature)
            scale, jac = np.diag(np.maximum(scale, 1e-12 * scale.max())), None
        if not gradient.any():
            return result(True, "gradient is zero")
        step = np.linalg.solve(curvature + lam * scale, -gradient)
        if np.max(np.abs(step)) <= xatol:
            return result(True, "step is below xatol")
        e_new, jacobian_new = residuals(x + step)
        nfev += 1
        css_new = float(e_new @ e_new)
        if not css_new <= css:  # also rejects a NaN
            lam *= 10.0
            continue
        css_old, css = css, css_new
        x, e = x + step, e_new
        # one step that overshoots across a narrow valley can land barely
        # lower while still far from the minimum, so take two in a row
        small = css_old - css <= fatol * css_old
        if small and small_before:
            return result(True, "relative decrease is below fatol")
        small_before = small
        # falling slower than it rises lets lam settle where steps are taken
        # in a row, instead of alternating a rejected and an accepted step
        lam = max(lam / 3.0, 1e-12)
        jac = jacobian_new()
    return result(False, "maximum number of iterations reached")


def _householder(design: np.ndarray,
                 y: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """QR of the design that skips dependent columns, left to right.

    Column ``j`` fails when its part orthogonal to the columns kept before
    it, whose norm is ``|R[j, j]|``, is at most `RANK_TOL` times its own
    norm, whatever its unit (Businger and Golub 1965, with rejection in
    place of pivoting, so the dependent columns are named in the caller's
    order).  Each pass is one LAPACK QR of the kept columns with ``y``
    appended; the first failing column is deleted and the pass repeats, so
    a full-rank design takes one pass.  Past the last row every column
    fails.  Returns the kept column indices, the square upper triangular
    ``R`` on them, and the matching leading entries of ``Q'y``.
    """
    norms = np.linalg.norm(design, axis=0)
    kept = list(range(design.shape[1]))
    while True:
        r = np.linalg.qr(np.column_stack([design[:, kept], y]), mode="r")
        rank = len(kept)
        # past the last row a column has no orthogonal part left
        diag = np.zeros(rank)
        diag[:len(r)] = np.abs(np.diagonal(r))[:rank]
        failed = np.flatnonzero(~(diag > RANK_TOL * norms[kept]))
        if not failed.size:
            return kept, r[:rank, :rank], r[:rank, rank]
        del kept[failed[0]]
