"""ARIMA estimation, order selection, and one-step-ahead prediction.

Models are fitted by conditional sum of squares (CSS) on the differenced
series: residuals are recursed with pre-sample shocks at zero, the first
``p`` differenced values serve as startup lags, and the mean is profiled out
in closed form.  The search runs over an unconstrained parameterisation in
which AR and MA coefficient vectors are rebuilt from partial-correlation
values squashed through tanh, so every visited point is stationary and
invertible by construction; the fitted polynomial roots are still checked
explicitly before a fit is accepted.

CSS is a nonlinear least-squares problem, and `minimize` solves it by
Levenberg-Marquardt iteration (Marquardt 1963) on the residual vector.  The
Jacobian is analytic: each residual derivative comes out of the same MA
inversion (`_InverseMA`, built once per coefficient vector) that produces the
residuals, with the direction of the profiled mean projected out (variable
projection, Kaufman 1975).  The one-step predictors run that inversion as
one filter as well.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitError
from .metrics import _criteria
from .series import Series, _durbin_levinson, acf, difference

MAX_ORDER = 5  # cap on p + q; larger models are never competitive on ~1000 days
ROOT_MARGIN = 1e-6

# The screening pass of `select_order`: its stopping tolerances, and the
# margin of loose criterion within which a cell is refitted in full.  At
# (1e-3, 1e-6) a winning cell stopped 46 above its full fit, at (1e-3,
# 1e-8) the largest gap was 0.36, at these 0.048.
SCREEN_XATOL = 1e-4
SCREEN_FATOL = 1e-7
SCREEN_DELTA = 1.0

# Samples per block of `_InverseMA`.  Within a block the filter is one matmul
# with the block's impulse-response matrix, whose first column the
# constructor computes by the scalar recursion; a longer block costs more of
# both.
_BLOCK = 64
# index into the impulse response padded with one zero: block[k, i] = h[i - k]
_LAGS = np.arange(_BLOCK) - np.arange(_BLOCK)[:, None]
_TOEPLITZ = np.where(_LAGS >= 0, _LAGS, _BLOCK)


@dataclass(frozen=True)
class ArimaSpec:
    """Model order: AR lags ``p``, differencing ``d``, MA lags ``q``."""

    p: int
    d: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError(f"negative order in ({self.p},{self.d},{self.q})")
        if self.d not in (0, 1, 2):
            raise ValueError(f"differencing order must be 0, 1 or 2, got {self.d}")
        if self.p + self.q > MAX_ORDER:
            raise ValueError(
                f"p + q must not exceed {MAX_ORDER}, got ({self.p},{self.d},{self.q})"
            )

    def n_params(self) -> int:
        """Estimated coefficients: AR, MA, and the mean."""
        return self.p + self.q + 1


@dataclass(frozen=True)
class FitConfig:
    """Solver budget and tolerances for `fit`.

    ``max_iterations`` caps the Levenberg-Marquardt iterations of one
    attempt and ``restarts`` the extra attempts from seeded random points
    after a failed one.  The solver stops when the largest component of a
    proposed step (in the tanh-transformed coordinates) is at most
    ``xatol``, or when two accepted steps in a row each lower the
    conditional sum of squares by at most ``fatol`` relative to its
    previous value.

    `select_order` screens its grid at looser tolerances first (at least
    `SCREEN_XATOL` and `SCREEN_FATOL`, with no restarts) and refits at this
    config only the cells whose loose criterion is within `SCREEN_DELTA`
    of the best refitted one, and cells whose loose fit failed.  Its result
    equals fitting every cell at this config unless a cell left out would
    improve on its loose criterion by `SCREEN_DELTA` or more; over 1,845
    cell fits on 41 fixtures the largest such gap was 0.048.
    """

    max_iterations: int = 2000
    restarts: int = 4
    seed: int = 0
    xatol: float = 1e-6
    fatol: float = 1e-10

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


DEFAULT_FIT_CONFIG = FitConfig()


@dataclass(frozen=True)
class ArimaFit:
    """A fitted model plus the in-sample evidence used to judge it.

    ``residuals`` live on the differenced scale and start at the first
    position with a full AR lag window, so their count is the effective
    sample size ``n_effective``.
    """

    spec: ArimaSpec
    mu: float
    phi: np.ndarray
    theta: np.ndarray
    residuals: np.ndarray
    sigma2: float
    css: float
    aic: float
    sic: float
    n_effective: int


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


def ar_from_pacf(pac: np.ndarray) -> np.ndarray:
    """Stationary AR coefficients from partial-correlation values in (-1, 1).

    Levinson recursion; the coefficient vector it returns has all polynomial
    roots outside the unit circle whenever every input lies inside (-1, 1).
    """
    return _levinson(pac)[0]


def _levinson(pac) -> tuple[np.ndarray, np.ndarray]:
    """`ar_from_pacf` and its Jacobian, ``dphi[i, k] = d phi_i / d pac_k``,
    carried through the recursion in forward mode."""
    pac = np.asarray(pac, dtype=float)
    phi = pac.copy()
    dphi = np.eye(pac.size)
    for k in range(1, pac.size):
        rev = phi[:k][::-1].copy()
        dphi[:k] = dphi[:k] - pac[k] * dphi[:k][::-1]
        dphi[:k, k] -= rev
        phi[:k] = phi[:k] - pac[k] * rev
    return phi, dphi


def _pacf_from_ar(phi: np.ndarray) -> np.ndarray | None:
    """Inverse of `ar_from_pacf` (the step-down recursion), or None when
    ``phi`` is not stationary."""
    a = np.array(phi, dtype=float)
    pac = np.empty(a.size)
    for k in range(a.size - 1, -1, -1):
        r = a[k]
        if not abs(r) < 1.0:
            return None
        pac[k] = r
        a = (a[:k] + r * a[:k][::-1]) / (1.0 - r * r)
    return pac


def _coeffs_from_raw(raw: np.ndarray, p: int,
                     q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """AR and MA coefficients at ``raw``, and the Jacobian of the stacked
    ``(phi, theta)`` with respect to ``raw``."""
    t = np.tanh(raw)
    r = np.clip(t, -0.9999, 0.9999)
    phi, dphi = _levinson(r[:p])
    # MA polynomial 1 + theta_1 B + ... is invertible iff the mirrored AR
    # polynomial is stationary, hence the sign flip.
    theta, dtheta = _levinson(r[p:])
    dcoef = np.zeros((p + q, p + q))
    dcoef[:p, :p] = dphi
    dcoef[p:, p:] = -dtheta
    # a clipped component no longer moves the coefficients
    dcoef *= np.where(np.abs(t) < 0.9999, 1.0 - t**2, 0.0)
    return phi, -theta, dcoef


class _InverseMA:
    """The MA inversion ``y[t] = x[t] - theta_1 y[t-1] - ... - theta_q y[t-q]``,
    that is, filtering by ``1 / (1 + theta_1 B + ... + theta_q B^q)``.

    Built once per ``theta`` and applied blockwise.  Within a block of
    `_BLOCK` samples the zero-state output is one matmul with the
    lower-triangular Toeplitz matrix of the impulse response.  The q outputs
    before a block act on it as the inputs ``u[t] = -sum_m theta[t+m] s[m]``
    (``s`` newest first), so their effect is one matmul with a q-row matrix.
    Those q outputs pass from block to block by a q-dimensional linear
    recursion, solved in log2(blocks) batched matmuls.  With q = 0 the
    filter is the identity.
    """

    def __init__(self, theta: np.ndarray):
        self.q = q = theta.size
        if not q:
            return
        # the impulse response by the recursion itself, oldest lag first
        coeffs = (-theta[::-1]).tolist()
        h = [0.0] * q + [1.0]
        for _ in range(_BLOCK - 1):
            h.append(sum(map(operator.mul, coeffs, h[-q:])))
        # a row of inputs times block is the zero-state output
        self.block = np.array(h[q:] + [0.0])[_TOEPLITZ]
        state_inputs = np.zeros((q, q))
        for t in range(q):
            state_inputs[:q - t, t] = -theta[t:]
        self.carry = state_inputs @ self.block[:q]
        self.carry_tail = self.carry[:, :-q - 1:-1]

    def __call__(self, x: np.ndarray, past: np.ndarray | None = None) -> np.ndarray:
        """Filter ``x`` along its last axis.  ``past`` holds the q outputs
        before ``x[..., 0]``, oldest first; they are zero when it is None."""
        q = self.q
        if not q:
            return np.array(x, dtype=float)
        n = x.shape[-1]
        blocks = -(-n // _BLOCK)
        padded = np.zeros(x.shape[:-1] + (blocks * _BLOCK,))
        padded[..., :n] = x
        y = padded.reshape(x.shape[:-1] + (blocks, _BLOCK)) @ self.block
        # states[b], the q outputs before block b (newest first), follow
        # states[b+1] = tails[b] + states[b] @ carry_tail.  Doubling solves
        # the recursion: after the round with shift d each entry sums the
        # terms from the 2d entries up to it.
        tails = y[..., :-1, :-q - 1:-1]
        states = np.zeros(y.shape[:-1] + (q,))
        if past is not None:
            states[..., 0, :] = np.asarray(past, dtype=float)[::-1]
        states[..., 1:, :] = tails
        step, shift = self.carry_tail, 1
        while shift < blocks:
            states[..., shift:, :] += states[..., :-shift, :] @ step
            step, shift = step @ step, 2 * shift
        y += states @ self.carry
        return y.reshape(padded.shape)[..., :n]


def _css_residuals(w: np.ndarray, p: int, phi: np.ndarray,
                   ma: _InverseMA) -> tuple[float, np.ndarray, np.ndarray]:
    """Profiled mean, residual vector and mean direction for fixed AR/MA
    coefficients.

    With the AR part applied, residuals are linear in mu, ``e = filter(u) -
    mu * m`` with ``m = filter(1)``, so the optimal mean is a one-dimensional
    least-squares solve instead of a search dimension.
    """
    n = w.size
    u = w[p:].copy()
    for i in range(1, p + 1):
        u -= phi[i - 1] * w[p - i:n - i]
    e_base, e_mean = ma(np.stack([u, np.ones_like(u)]))
    mu = float(np.dot(e_base, e_mean) / np.dot(e_mean, e_mean))
    return mu, e_base - mu * e_mean, e_mean


def _css_jacobian(w: np.ndarray, p: int, ma: _InverseMA,
                  e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Derivatives of the profiled residuals with respect to ``(phi, theta)``,
    one column per coefficient.

    At fixed mean, ``de/dphi_i`` is the MA filter applied to ``-w`` lagged by
    ``i`` and ``de/dtheta_j`` the same filter applied to ``-e`` lagged by
    ``j`` (zero before the start).  Projecting the mean direction ``m`` out
    of every column accounts for the mean being re-profiled; since the
    profiled residuals are orthogonal to ``m``, the gradient ``J.T @ e`` is
    exact.
    """
    q = ma.q
    rows = np.zeros((p + q, e.size))
    for i in range(1, p + 1):
        rows[i - 1] = -w[p - i:w.size - i]
    for j in range(1, q + 1):
        rows[p + j - 1, j:] = -e[:-j]
    d = ma(rows)
    d -= np.outer(d @ m / (m @ m), m)
    return d.T


def _hannan_rissanen(w: np.ndarray, p: int, q: int) -> np.ndarray:
    """Starting point in the transformed coordinates, by Hannan-Rissanen
    (1982) regression.

    A long Yule-Walker autoregression (order ``log(n)**2``, at least
    ``2 * (p + q)``; the Durbin-Levinson recursion solves it without an
    ``n``-row design matrix) estimates the shocks.  Regressing ``w`` on its
    own ``p`` lags and ``q`` lagged shock estimates gives AR and MA
    coefficients, which the step-down recursion and artanh map back to the
    search coordinates.  A block that comes out non-stationary or
    non-invertible starts at zero.
    """
    n = w.size
    shocks = np.zeros(n)
    if q:
        m = int(min(n // 4, max(2 * (p + q), np.log(n) ** 2)))
        rho = np.concatenate([[1.0], acf(Series(w), m).coefficients])
        ar = _durbin_levinson(rho, m)[1]
        shocks[m:] = np.convolve(w - w.mean(), np.concatenate([[1.0], -ar]))[m:n]
        start = m + q
    else:
        start = p
    design = np.column_stack([np.ones(n - start)]
                             + [w[start - i:n - i] for i in range(1, p + 1)]
                             + [shocks[start - j:n - j] for j in range(1, q + 1)])
    coef = np.linalg.lstsq(design, w[start:], rcond=None)[0]
    x0 = np.zeros(p + q)
    for block, coeffs in ((slice(0, p), coef[1:p + 1]), (slice(p, p + q), -coef[p + 1:])):
        pac = _pacf_from_ar(coeffs)
        if pac is not None:
            x0[block] = np.arctanh(np.clip(pac, -0.99, 0.99))
    return x0


def minimize(residuals, x0: np.ndarray, max_iterations: int, xatol: float,
             fatol: float, damping: float = 1e-3) -> MinimizeResult:
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


def _roots_outside(coeffs: np.ndarray, margin: float = ROOT_MARGIN) -> bool:
    """True when the polynomial 1 - c1 z - ... - ck z^k has all roots
    strictly outside the unit circle."""
    if coeffs.size == 0:
        return True
    roots = np.roots(np.concatenate([-coeffs[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0 + margin))


def fit(train: Series, spec: ArimaSpec,
        config: FitConfig = DEFAULT_FIT_CONFIG) -> ArimaFit:
    """Estimate an ARIMA model on a level series.

    Differencing happens internally according to ``spec.d``.  Estimation
    minimises the conditional sum of squares by Levenberg-Marquardt
    iteration (`minimize`) over the transformed coefficients, with the
    analytic Jacobian of the residuals.  The first attempt starts from a
    Hannan-Rissanen regression: at zero the AR and MA lag columns of the
    Jacobian coincide, so the first steps would split each lag arbitrarily
    between the two and can settle in a worse local minimum.  Later attempts
    start from seeded random points when an attempt fails to converge; a
    model whose polynomial roots sit on or inside the unit circle is
    rejected.
    """
    p, d, q = spec.p, spec.d, spec.q
    if len(train) < 10 * spec.n_params():
        raise ValueError(
            f"series too short to fit ({spec.p},{spec.d},{spec.q}): "
            f"{len(train)} observations, need {10 * spec.n_params()}"
        )
    w = difference(train, d).values
    if np.ptp(w) == 0.0 and (p or q):
        raise FitError(f"differenced series is constant; ({p},{d},{q}) unidentifiable")

    if p + q == 0:
        mu = float(w.mean())
        resid = w - mu
        return _finish(spec, mu, np.empty(0), np.empty(0), resid)

    def residuals(raw: np.ndarray):
        phi, theta, dcoef = _coeffs_from_raw(raw, p, q)
        ma = _InverseMA(theta)
        _, e, m = _css_residuals(w, p, phi, ma)
        return e, lambda: _css_jacobian(w, p, ma, e, m) @ dcoef

    rng = np.random.default_rng(config.seed)
    failures: list[str] = []
    for attempt in range(config.restarts + 1):
        x0 = _hannan_rissanen(w, p, q) if attempt == 0 else rng.normal(0.0, 0.5, p + q)
        result = minimize(residuals, x0, config.max_iterations,
                          config.xatol, config.fatol)
        if not result.success:
            failures.append(f"attempt {attempt}: {result.message}")
            continue
        phi, theta, _ = _coeffs_from_raw(result.x, p, q)
        if not (_roots_outside(phi) and _roots_outside(-theta)):
            failures.append(f"attempt {attempt}: roots on or inside the unit circle")
            continue
        mu, resid, _ = _css_residuals(w, p, phi, _InverseMA(theta))
        return _finish(spec, mu, phi, theta, resid)
    raise FitError(
        f"({p},{d},{q}) estimation failed after {config.restarts + 1} attempts: "
        + "; ".join(failures)
    )


def _finish(spec: ArimaSpec, mu: float, phi: np.ndarray, theta: np.ndarray,
            resid: np.ndarray) -> ArimaFit:
    n_eff = resid.size
    sigma2 = float(np.mean(resid**2))
    aic, sic = _criteria(sigma2, n_eff, spec.n_params())
    return ArimaFit(
        spec=spec, mu=mu, phi=phi, theta=theta, residuals=resid,
        sigma2=sigma2, css=float(np.sum(resid**2)), aic=aic, sic=sic,
        n_effective=n_eff,
    )


CRITERIA = ("aic", "sic")  # what `select_order` can rank models by


def select_order(train: Series, d: int, max_p: int = 3, max_q: int = 3,
                 criterion: str = "sic",
                 config: FitConfig = DEFAULT_FIT_CONFIG) -> ArimaFit:
    """Grid search over (p, q) at fixed d, returning the best fit.

    Cells with p + q > `MAX_ORDER` (5) are skipped, so the default 3 x 3
    grid never fits (3, 3).  Ranking is by the requested information
    criterion; exact ties go to the smaller total order p + q, then to the
    smaller p.  Grid cells whose estimation fails are skipped; if every cell
    fails, so does the search.

    The search runs in two passes, after ``auto.arima`` (Hyndman and
    Khandakar 2008).  The screening pass fits every cell once, from the
    Hannan-Rissanen start only, at the loose tolerances `SCREEN_XATOL` and
    `SCREEN_FATOL` (or ``config``'s, where those are looser).  The second
    pass refits cells from scratch at ``config``, in order of their loose
    criterion, until the next cell's loose criterion exceeds the best
    refitted criterion by more than `SCREEN_DELTA`; a cell whose loose fit
    failed is always refitted.  A full fit follows the loose fit's
    iterates and goes on from where they stop, so it never scores worse,
    and each refit is the fit a one-pass search makes of that cell.  The
    result is therefore the one-pass search's, bit for bit, unless a cell
    left out improves on its loose criterion by `SCREEN_DELTA` or more.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if max_p < 0 or max_q < 0:
        raise ValueError("order bounds must be non-negative")
    cells = [ArimaSpec(p, d, q) for p in range(max_p + 1) for q in range(max_q + 1)
             if p + q <= MAX_ORDER]
    # no restarts: a cell whose first attempt fails is refitted anyway
    loose = replace(config, restarts=0, xatol=max(SCREEN_XATOL, config.xatol),
                    fatol=max(SCREEN_FATOL, config.fatol))
    screened = []
    for spec in cells:
        try:
            screened.append((getattr(fit(train, spec, loose), criterion), spec))
        except (FitError, ValueError):
            screened.append((-np.inf, spec))
    screened.sort(key=operator.itemgetter(0))  # stable: failed cells in grid order

    def rank(f: ArimaFit):
        return getattr(f, criterion), f.spec.p + f.spec.q, f.spec.p

    best: ArimaFit | None = None
    failures: dict[ArimaSpec, str] = {}
    for score, spec in screened:
        if best is not None and score > getattr(best, criterion) + SCREEN_DELTA:
            break
        try:
            refit = fit(train, spec, config)
        except (FitError, ValueError) as exc:
            failures[spec] = str(exc)
            continue
        if best is None or rank(refit) < rank(best):
            best = refit
    if best is None:
        raise FitError(f"no candidate order at d={d} could be fitted: "
                       + "; ".join(failures[spec] for spec in cells))
    return best


def _one_step(fitted: ArimaFit, levels: np.ndarray, shocks: np.ndarray) -> np.ndarray:
    """One-step predictions of ``levels[p + d:]``, parameters frozen.

    The shocks come from one pass of the MA filter over the differenced
    values minus their mean-plus-AR part, and each prediction adds the MA
    terms of the shocks before it in one product with the lagged shocks.
    (The actual value minus its shock is the same number in exact
    arithmetic, but through rounding it would read its own day's value.)
    ``shocks`` holds the ``q`` shocks before the first prediction, oldest
    first.  Differenced predictions are re-integrated on the previous
    actual levels.
    """
    p, d, q = fitted.spec.p, fitted.spec.d, fitted.spec.q
    w = np.diff(levels, n=d)
    n = w.size
    steps = np.full(n - p, fitted.mu)
    for i in range(1, p + 1):
        steps += fitted.phi[i - 1] * w[p - i:n - i]
    if q:
        e = np.concatenate([shocks, _InverseMA(fitted.theta)(w[p:] - steps, past=shocks)])
        steps += sliding_window_view(e[:-1], q) @ fitted.theta[::-1]
    if d == 0:
        return steps
    start = p + d
    prev = levels[start - 1:-1]
    if d == 1:
        return prev + steps
    return prev + (prev - levels[start - 2:-2]) + steps


def rolling_one_step(fitted: ArimaFit, test: Series, anchors) -> Series:
    """One-step-ahead predictions over a held-out window, parameters frozen.

    Each day's prediction conditions on all actual values through the
    previous day; after predicting, the actual value is consumed and the
    shock history updated.  ``anchors`` must be the last ``p + d`` (or more)
    training levels so the recursion continues where `fit` left off.
    """
    p, d, q = fitted.spec.p, fitted.spec.d, fitted.spec.q
    anchors = np.asarray(anchors, dtype=float)
    need = max(p + d, 1)
    if anchors.ndim != 1 or anchors.size < need:
        raise ValueError(
            f"need at least {need} anchor levels for ({p},{d},{q}), got {anchors.size}"
        )
    if not np.all(np.isfinite(anchors)):
        raise ValueError("anchors must be finite")
    tail = anchors[-(p + d):] if p + d else np.empty(0)
    levels = np.concatenate([tail, test.values])
    shocks = fitted.residuals[-q:] if q else np.empty(0)
    preds = _one_step(fitted, levels, shocks)
    return Series(preds, name=f"{test.name}_pred", diff_level=test.diff_level)


def one_step_history(fitted: ArimaFit, full: Series) -> np.ndarray:
    """One-step predictions across an entire level series, same parameters.

    Returns an array aligned with ``full``; the first ``p + d`` positions are
    NaN (no complete lag window yet).  On the stretch past the training data
    it runs the recursion of `rolling_one_step` over the same differenced
    values.  With q = 0 the two agree exactly.  With q > 0 the shocks reach
    that stretch through the whole history here and through the fit's
    residuals there, so the two agree only to rounding.
    """
    p, d, q = fitted.spec.p, fitted.spec.d, fitted.spec.q
    start = p + d
    if len(full) <= start:
        raise ValueError(f"series too short for ({p},{d},{q}) one-step history")
    out = np.full(len(full), np.nan)
    out[start:] = _one_step(fitted, full.values, np.zeros(q))
    return out
