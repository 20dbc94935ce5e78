"""ARIMA estimation, order selection, and one-step-ahead prediction.

Models are fitted by conditional sum of squares (CSS) on the differenced
series: residuals are recursed with pre-sample shocks at zero, the first
``p`` differenced values serve as startup lags, and the mean is profiled out
in closed form.  The search runs over an unconstrained parameterisation in
which AR and MA coefficient vectors are rebuilt from partial-correlation
values squashed through tanh, so every visited point is stationary and
invertible by construction; the fitted polynomial roots are still checked
explicitly before a fit is accepted.

CSS is a nonlinear least-squares problem, and `solver.minimize` solves it by
Levenberg-Marquardt iteration (Marquardt 1963) on the residual vector.  The
Jacobian is analytic: each residual derivative comes out of the same MA
inversion (`_InverseMA`, built once per coefficient vector) that produces the
residuals, with the direction of the profiled mean projected out (variable
projection, Kaufman 1975).  The one-step predictor, `one_step_history`,
runs that inversion as one filter as well.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import FitError
from .metrics import _criteria
from .series import Series, _durbin_levinson, acf, difference
from .solver import _householder, minimize

MAX_ORDER = 5  # cap on p + q; larger models are never competitive on ~1000 days
ROOT_MARGIN = 1e-6

# `fit`'s solver settings: one attempt's iteration cap, stopping tolerances
# (see `solver.minimize`) and initial damping, and the seeded restarts.
MAX_ITERATIONS = 2000
XATOL = 1e-6
FATOL = 1e-10
DAMPING = 1e-3
RESTARTS = 4

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
class ArimaFit:
    """A fitted model plus the in-sample evidence used to judge it.

    ``residuals`` live on the differenced scale and start at the first
    position with a full AR lag window, so their count is the effective
    sample size.
    """

    spec: ArimaSpec
    mu: float
    phi: np.ndarray
    theta: np.ndarray
    residuals: np.ndarray
    sigma2: float
    aic: float
    sic: float


def _levinson(pac) -> tuple[np.ndarray, np.ndarray]:
    """Stationary AR coefficients from partial-correlation values in (-1, 1),
    and their Jacobian, ``dphi[i, k] = d phi_i / d pac_k``, carried through
    the recursion in forward mode.

    The coefficient vector has all polynomial roots outside the unit circle
    whenever every input lies inside (-1, 1).
    """
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
    """Inverse of `_levinson` (the step-down recursion), or None when
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

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Filter ``x`` along its last axis, from zero outputs before it."""
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
    own ``p`` lags and ``q`` lagged shock estimates (`solver._householder`;
    a lag rejected as dependent gets 0) gives AR and MA coefficients, which
    the step-down recursion and artanh map back to the search coordinates.
    A block that comes out non-stationary or non-invertible starts at zero.
    """
    n = w.size
    shocks = np.zeros(n)
    if q:
        m = int(min(n // 4, max(2 * (p + q), np.log(n) ** 2)))
        ar = _durbin_levinson(acf(Series(w), m).coefficients)[1]
        shocks[m:] = np.convolve(w - w.mean(), np.concatenate([[1.0], -ar]))[m:n]
        start = m + q
    else:
        start = p
    design = np.column_stack([np.ones(n - start)]
                             + [w[start - i:n - i] for i in range(1, p + 1)]
                             + [shocks[start - j:n - j] for j in range(1, q + 1)])
    kept, r, qty = _householder(design, w[start:])
    coef = np.zeros(design.shape[1])
    coef[kept] = np.linalg.solve(r, qty)
    x0 = np.zeros(p + q)
    for block, coeffs in ((slice(0, p), coef[1:p + 1]), (slice(p, p + q), -coef[p + 1:])):
        pac = _pacf_from_ar(coeffs)
        if pac is not None:
            x0[block] = np.arctanh(np.clip(pac, -0.99, 0.99))
    return x0


def _roots_outside(coeffs: np.ndarray) -> bool:
    """True when the polynomial 1 - c1 z - ... - ck z^k has all roots
    strictly outside the unit circle."""
    if coeffs.size == 0:
        return True
    roots = np.roots(np.concatenate([-coeffs[::-1], [1.0]]))
    return bool(np.all(np.abs(roots) > 1.0 + ROOT_MARGIN))


def fit(train: Series, spec: ArimaSpec, seed: int = 0) -> ArimaFit:
    """Estimate an ARIMA model on a level series.

    Differencing happens internally according to ``spec.d``.  Estimation
    minimises the conditional sum of squares by Levenberg-Marquardt
    iteration (`solver.minimize`) over the transformed coefficients, with the
    analytic Jacobian of the residuals.  The first attempt starts from a
    Hannan-Rissanen regression: at zero the AR and MA lag columns of the
    Jacobian coincide, so the first steps would split each lag arbitrarily
    between the two and can settle in a worse local minimum.  Later attempts
    start from random points, drawn from one generator seeded with ``seed``,
    when an attempt fails to converge; a model whose polynomial roots sit on
    or inside the unit circle is rejected.  A negative ``seed`` is refused
    before anything is fitted.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return _fit(train, spec, XATOL, FATOL, RESTARTS, seed)


def _fit(train, spec, xatol: float, fatol: float, restarts: int, seed: int) -> ArimaFit:
    """`fit` at the given stopping tolerances and number of restarts."""
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

    failures: list[str] = []
    for attempt in range(restarts + 1):
        if attempt == 1:  # first restart: a fit without one never imports numpy.random
            rng = np.random.default_rng(seed)
        x0 = _hannan_rissanen(w, p, q) if attempt == 0 else rng.normal(0.0, 0.5, p + q)
        result = minimize(residuals, x0, MAX_ITERATIONS, xatol, fatol, DAMPING)
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
        f"({p},{d},{q}) estimation failed after {restarts + 1} attempts: "
        + "; ".join(failures)
    )


def _finish(spec: ArimaSpec, mu: float, phi: np.ndarray, theta: np.ndarray,
            resid: np.ndarray) -> ArimaFit:
    sigma2 = float(np.mean(resid**2))
    aic, sic = _criteria(sigma2, resid.size, spec.n_params())
    return ArimaFit(spec=spec, mu=mu, phi=phi, theta=theta, residuals=resid,
                    sigma2=sigma2, aic=aic, sic=sic)


CRITERIA = ("aic", "sic")  # what `select_order` can rank models by


def select_order(train: Series, d: int, max_p: int = 3, max_q: int = 3,
                 criterion: str = "sic", seed: int = 0) -> ArimaFit:
    """Grid search over (p, q) at fixed d, returning the best fit.

    Cells with p + q > `MAX_ORDER` (5) are skipped, so the default 3 x 3
    grid never fits (3, 3).  Every cell is ranked by the requested
    information criterion on one common sample, the last n - d - min(max_p,
    5) residuals of its fit (Ng and Perron 2005): a cell's own sample shrinks
    as p grows, so criteria over their own samples would move against each
    other with the unit of the series.  Exact ties go to the smaller total
    order p + q, then to the smaller p.  The returned fit's ``aic`` and
    ``sic`` are its own, over all its residuals.  Grid cells whose
    estimation fails are skipped; if every cell fails, so does the search.

    The search runs in two passes, after ``auto.arima`` (Hyndman and
    Khandakar 2008).  The screening pass fits every cell once, from the
    Hannan-Rissanen start only, at the loose tolerances `SCREEN_XATOL` and
    `SCREEN_FATOL`.  The second pass refits cells from scratch by `fit`, in
    order of their loose criterion, until the next cell's loose criterion
    exceeds the best refitted criterion by more than `SCREEN_DELTA`; a cell
    whose loose fit failed is always refitted.  Each refit is the fit a
    one-pass search makes of that cell, so the result is the one-pass
    search's, bit for bit, unless a cell left out improves on its loose
    criterion by `SCREEN_DELTA` or more.  Every fit is seeded with ``seed``,
    and a negative one is refused before the first.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    if max_p < 0 or max_q < 0:
        raise ValueError("order bounds must be non-negative")
    cells = [ArimaSpec(p, d, q) for p in range(max_p + 1) for q in range(max_q + 1)
             if p + q <= MAX_ORDER]
    common, pick = len(train) - d - min(max_p, MAX_ORDER), CRITERIA.index(criterion)

    def score(f: ArimaFit) -> float:
        tail = f.residuals[-common:]
        return _criteria(float(np.mean(tail**2)), common, f.spec.n_params())[pick]

    screened = []
    for spec in cells:
        try:
            loose = _fit(train, spec, SCREEN_XATOL, SCREEN_FATOL, 0, seed)
            screened.append((score(loose), spec))
        except (FitError, ValueError):
            screened.append((-np.inf, spec))
    screened.sort(key=operator.itemgetter(0))  # stable: failed cells in grid order

    def rank(f: ArimaFit):
        return score(f), f.spec.p + f.spec.q, f.spec.p

    best: ArimaFit | None = None
    failures: dict[ArimaSpec, str] = {}
    for loose_score, spec in screened:
        if best is not None and loose_score > score(best) + SCREEN_DELTA:
            break
        try:
            refit = fit(train, spec, seed)
        except (FitError, ValueError) as exc:
            failures[spec] = str(exc)
            continue
        if best is None or rank(refit) < rank(best):
            best = refit
    if best is None:
        raise FitError(f"no candidate order at d={d} could be fitted: "
                       + "; ".join(failures[spec] for spec in cells))
    return best


def one_step_history(fitted: ArimaFit, full: Series) -> np.ndarray:
    """One-step predictions across a level series, parameters frozen.

    Returns an array aligned with ``full``; the first ``p + d`` positions are
    NaN (no complete lag window yet), and each later one conditions on the
    actual values through the day before it, so held-out days are a slice.
    The shocks come from one pass of the MA filter, pre-sample shocks at
    zero, over the differenced values minus their mean-plus-AR part, and
    each prediction adds the MA terms of the shocks before it in one product
    with the lagged shocks.  (The actual value minus its shock is the same
    number in exact arithmetic, but through rounding it would read its own
    day's value.)  Differenced predictions are re-integrated on the previous
    actual levels.
    """
    p, d, q = fitted.spec.p, fitted.spec.d, fitted.spec.q
    start = p + d
    if len(full) <= start:
        raise ValueError(f"series too short for ({p},{d},{q}) one-step history")
    levels = full.values
    w = np.diff(levels, n=d)
    n = w.size
    steps = np.full(n - p, fitted.mu)
    for i in range(1, p + 1):
        steps += fitted.phi[i - 1] * w[p - i:n - i]
    if q:
        e = np.concatenate([np.zeros(q), _InverseMA(fitted.theta)(w[p:] - steps)])
        steps += sliding_window_view(e[:-1], q) @ fitted.theta[::-1]
    if d:
        prev = levels[start - 1:-1]
        steps += prev if d == 1 else prev + (prev - levels[start - 2:-2])
    out = np.full(len(full), np.nan)
    out[start:] = steps
    return out


# The same function under the name the benchmark's tracer (`bench/layers.py`)
# still lists among the boundaries it wraps.
rolling_one_step = one_step_history
