"""Dense active-set solver for concave quadratic programs.

Solves

    maximize    c'x + 1/2 sum_i d_i x_i^2        (d_i <= 0)
    subject to  A_eq x  = b_eq
                A_in x <= b_in
                lb <= x <= ub

with a primal active-set method.  Bounds stay bounds: each column is
free, at its lower bound or at its upper bound (columns with lb == ub
stay pinned), and steps move the free columns within the null space of
the working rows.  When the start, clipped into the box, is infeasible, a
phase-1 pass with artificial slacks on the equality rows and the violated
inequality rows produces a feasible point or an infeasibility verdict.
All tie-breaks pick the lowest index (rows, then upper bounds, then lower
bounds), so results are deterministic.
"""

from __future__ import annotations

import bisect
import copy
import time
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Optional

import numpy as np

from .errors import SolverFailure, TimeLimit

FEAS_TOL = 1e-9
DUAL_TOL = 1e-9
STEP_TOL = 1e-11
CURV_TOL = 1e-10
RANK_TOL = 1e-11
INFEAS_TOL = 1e-7  # phase-1 weight above which a problem is infeasible


@dataclass
class QpProblem:
    c: np.ndarray
    d: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    A_in: np.ndarray
    b_in: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        n = len(self.c)
        self.c = np.asarray(self.c, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        self.A_eq = np.asarray(self.A_eq, dtype=float).reshape(-1, n)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.A_in = np.asarray(self.A_in, dtype=float).reshape(-1, n)
        self.b_in = np.asarray(self.b_in, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if np.any(self.d > 1e-12):
            raise ValueError("quadratic diagonal must be nonpositive")

    @property
    def n(self) -> int:
        return len(self.c)

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray) -> "QpProblem":
        """This problem with the float arrays ``lb`` and ``ub`` as its box.
        The copy shares the other arrays, already converted and checked,
        and the stacked rows of ``infeasible_by_bounds``, built here once."""
        self._activity_rows  # stacked before the copy, so that copies share them
        node = copy.copy(self)
        node.lb, node.ub = lb, ub
        return node

    @cached_property
    def _activity_rows(self):
        # equality rows once as they are (lowest activity) and once negated
        # (highest), with the signs of their coefficients
        M = np.concatenate((self.A_in, self.A_eq, -self.A_eq))
        rhs = np.concatenate((self.b_in, self.b_eq, -self.b_eq))
        return M, rhs + INFEAS_TOL, M > 0.0, M < 0.0

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x + 0.5 * np.sum(self.d * x * x))


@dataclass
class QpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    y_eq: Optional[np.ndarray] = None
    mu_in: Optional[np.ndarray] = None
    nu_lower: Optional[np.ndarray] = None
    nu_upper: Optional[np.ndarray] = None
    ray: Optional[np.ndarray] = None
    certificate: Optional[dict] = None
    iterations: int = 0  # active-set iterations of phase 1 and phase 2


@dataclass
class KktReport:
    stationarity: float
    primal: float
    dual: float
    complementarity: float
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.stationarity, self.primal, self.dual, self.complementarity)

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def _factor(K: np.ndarray):
    """(Z, P, Vr) from one SVD  K = U S V'  with the RANK_TOL rank rule: Z
    spans the null space of K, and  P @ (Vr @ g)  applies the truncated
    pseudo-inverse of K' to g, which gives the least-squares multipliers."""
    if K.shape[0] == 0:
        return np.eye(K.shape[1]), np.zeros((0, 0)), np.zeros((0, K.shape[1]))
    u, s, vt = np.linalg.svd(K, full_matrices=True)
    tol = max(K.shape) * (s[0] if len(s) else 0.0) * RANK_TOL + RANK_TOL
    rank = int(np.sum(s > tol))
    return vt[rank:].T, u[:, :rank] / s[:rank], vt[:rank]


# column states: bounds stay bounds, never rows of the working matrix
FREE, LOWER, UPPER, PINNED = 0, 1, 2, 3


class _ActiveSet:
    """Active-set iteration on  max c'x + 1/2 x'Dx,  Ax=b,  Gx<=h,  lb<=x<=ub.

    The working set is a sorted list of rows of G plus one state per
    column; steps move only the free columns.  A blocking constraint is
    numbered  i < len(h)  for row i,  len(h) + j  for the upper bound of
    column j and  len(h) + n + j  for its lower bound, and ties go to the
    lowest number."""

    def __init__(self, c, d, A, b, G, h, lb, ub):
        self.c = c
        self.d = d
        self.A = A
        self.b = b
        self.G = G
        self.h = h
        self.lb = lb
        self.ub = ub
        self.n = len(c)

    def start(self, x):
        """Working rows and column states of the constraints tight at x."""
        work = np.flatnonzero(np.abs(self.G @ x - self.h) <= FEAS_TOL).tolist()
        state = np.full(self.n, FREE)
        state[x - self.lb <= FEAS_TOL] = LOWER
        state[self.ub - x <= FEAS_TOL] = UPPER
        state[self.lb == self.ub] = PINNED
        return work, state

    def run(self, x, work, state, deadline=None):
        """(status, x, work, state, out, iterations) where out is the ascent
        ray when unbounded and, when optimal, the closing multipliers
        (y, mu_w, r): equality and working-row multipliers and the reduced
        gradient  g - K'lam  that prices the fixed columns.  Raises
        TimeLimit once ``time.monotonic()`` passes ``deadline``."""
        c, d, n, m = self.c, self.d, self.n, len(self.b)
        max_iter = 200 * (2 * n + len(self.h) + 5)
        factor = None  # of the current working rows and column states
        for it in range(max_iter):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeLimit("QP solve passed its deadline")
            if factor is None:
                # one factorization serves the step and the multipliers; an
                # unblocked step keeps the working set, so the next
                # iteration reuses it
                free = state == FREE
                K = np.concatenate((self.A, self.G[work]))
                Z, P, Vr = _factor(K[:, free])
                curv = None
                df = d[free]
                if Z.shape[1] and df.any():
                    w, V = np.linalg.eigh(Z.T @ (df[:, None] * Z))
                    scale = max(1.0, float(np.max(np.abs(w))))
                    curv = (w, V, w < -CURV_TOL * scale)
                factor = (free, K, Z, P, Vr, curv)
            free, K, Z, P, Vr, curv = factor
            g = c + d * x
            p = np.zeros(n)
            ascent = None  # flat null-space direction along which g ascends
            if Z.shape[1]:
                gz = Z.T @ g[free]
                if curv is not None:
                    w, V, curved = curv
                    gv = V.T @ gz
                    q = np.zeros_like(gv)
                    q[curved] = -gv[curved] / w[curved]
                    p[free] = Z @ (V @ q)
                    gv[curved] = 0.0
                    if sqrt(gv @ gv) > DUAL_TOL:
                        ascent = V @ gv
                elif sqrt(gz @ gz) > DUAL_TOL:
                    # no curvature on the free columns: every direction is flat
                    ascent = gz

            if ascent is not None:
                # objective ascends linearly and forever along this ray
                ray = np.zeros(n)
                ray[free] = Z @ ascent
                ray /= sqrt(ray @ ray)
                alpha, block = self._ratio(x, ray, work, state, np.inf)
                if block is None:
                    return "unbounded", x, work, state, ray, it
                x = self._step(x, alpha, ray, block, work, state)
                factor = None
                continue

            if sqrt(p @ p) <= STEP_TOL * max(1.0, sqrt(x @ x)):
                lam = P @ (Vr @ g[free])
                neg = np.flatnonzero(lam[m:] < -DUAL_TOL)
                if len(neg):
                    del work[neg[0]]
                    factor = None
                    continue
                # a bound multiplier is the reduced gradient, signed by side;
                # upper bounds are released before lower ones
                r = g - K.T @ lam
                wrong = np.concatenate(
                    ((state == UPPER) & (r < -DUAL_TOL), (state == LOWER) & (r > DUAL_TOL))
                )
                k = int(np.argmax(wrong))
                if not wrong[k]:
                    return "optimal", x, work, state, (lam[:m], lam[m:], r), it
                state[k % n] = FREE
                factor = None
                continue

            alpha, block = self._ratio(x, p, work, state, 1.0)
            x = self._step(x, alpha, p, block, work, state)
            if block is not None:
                factor = None
        raise SolverFailure("active-set iteration limit reached")

    def _ratio(self, x, p, work, state, alpha_max):
        free = state == FREE
        gp = self.G @ p
        gp[work] = 0.0
        rate = np.concatenate((gp, np.where(free, p, 0.0), np.where(free, -p, 0.0)))
        slack = np.concatenate((self.h - self.G @ x, self.ub - x, x - self.lb))
        hit = np.flatnonzero((rate > 1e-12) & (slack < np.inf))
        if len(hit) == 0:
            return alpha_max, None
        ratios = np.maximum(slack[hit], 0.0) / rate[hit]
        alpha = float(ratios.min())
        if not alpha < alpha_max - 1e-14:
            return alpha_max, None
        k = int(np.argmax(ratios <= alpha + 1e-14))
        return float(ratios[k]), int(hit[k])

    def _step(self, x, alpha, p, block, work, state):
        """Move to x + alpha p and add the blocking constraint in place."""
        x = x + alpha * p
        if block is None:
            return x
        m = len(self.h)
        if block < m:
            bisect.insort(work, block)
        elif block < m + self.n:
            j = block - m
            state[j], x[j] = UPPER, self.ub[j]
        else:
            j = block - m - self.n
            state[j], x[j] = LOWER, self.lb[j]
        return x


def _bound_multipliers(state, r):
    """Lower- and upper-bound multipliers from the reduced gradient r; a
    pinned column takes the side its sign says."""
    lower = (state == LOWER) | (state == PINNED)
    upper = (state == UPPER) | (state == PINNED)
    return np.where(lower, np.maximum(-r, 0.0), 0.0), np.where(upper, np.maximum(r, 0.0), 0.0)


def _phase1(prob: QpProblem, x0: np.ndarray, deadline=None):
    """(x, None, iterations) with a feasible point from the start x0 (inside
    the box), or (None, certificate, iterations) when none exists.  Only the
    equality rows and the rows x0 violates get artificial slacks; the box
    stays a box."""
    n = prob.n
    A, b, G, h = prob.A_eq, prob.b_eq, prob.A_in, prob.b_in
    r_eq = b - A @ x0
    excess = G @ x0 - h
    viol = np.flatnonzero(excess > FEAS_TOL)
    if np.all(np.abs(r_eq) <= FEAS_TOL) and len(viol) == 0:
        return x0, None, 0
    # z = [x, s_eq, s_in], all artificials nonnegative, maximize -sum(s)
    m, k = len(b), len(viol)
    A1 = np.hstack([A, np.diag(np.where(r_eq >= 0, 1.0, -1.0)), np.zeros((m, k))])
    G1 = np.hstack([G, np.zeros((len(h), m)), -np.eye(len(h))[:, viol]])
    c1 = np.concatenate([np.zeros(n), -np.ones(m + k)])
    lb1 = np.concatenate([prob.lb, np.zeros(m + k)])
    ub1 = np.concatenate([prob.ub, np.full(m + k, np.inf)])
    z0 = np.concatenate([x0, np.abs(r_eq), excess[viol]])
    solver = _ActiveSet(c1, np.zeros(n + m + k), A1, b, G1, h, lb1, ub1)
    status, z, work, state, out, iters = solver.run(z0, *solver.start(z0), deadline)
    if status != "optimal":
        raise SolverFailure("phase-1 subproblem did not converge")
    if float(np.sum(z[n:])) > INFEAS_TOL:
        # unsatisfiable subset: constraints carrying nonzero phase-1 weight
        y1, mu_w, r = out
        nu_lower, nu_upper = _bound_multipliers(state[:n], r[:n])
        return None, {
            "eq": [j for j in range(m) if abs(float(y1[j])) > INFEAS_TOL],
            "in": [i for i, mu in zip(work, mu_w) if mu > INFEAS_TOL],
            "upper": np.flatnonzero(nu_upper > INFEAS_TOL).tolist(),
            "lower": np.flatnonzero(nu_lower > INFEAS_TOL).tolist(),
        }, iters
    return z[:n], None, iters


def infeasible_by_bounds(prob: QpProblem) -> bool:
    """True when row activity bounds over the box prove prob infeasible
    (bound propagation, Savelsbergh 1994): an equality row whose activity
    range misses its right-hand side, or an inequality row whose lowest
    activity exceeds it, by more than INFEAS_TOL.  Phase 1 calls every such
    problem infeasible, since the artificial on that row must carry more
    than INFEAS_TOL, so callers may skip the solve.  The stacked rows are
    built on the first call and shared by ``with_bounds`` copies, so the
    rows of a problem must not change after that call."""
    # a zero coefficient adds nothing, even against an infinite bound
    M, limit, pos, neg = prob._activity_rows
    low = np.multiply(M, prob.lb, out=np.zeros_like(M), where=pos)
    np.multiply(M, prob.ub, out=low, where=neg)
    return bool((low.sum(axis=1) > limit).any())


def solve_qp(
    prob: QpProblem, x0: Optional[np.ndarray] = None, deadline: Optional[float] = None
) -> QpSolution:
    """Optimum, infeasibility certificate or ascent ray of prob.  The
    search starts from x0 clipped into the box, or from the clipped origin
    when x0 is None; callers that know a better start pass it (the clearing
    QPs pass ``model.balanced_start``, pricing ``pricing._price_start`` over
    its stationarity rows).
    Phase 1 runs only when that point is infeasible.  With a ``deadline``
    (a ``time.monotonic()`` instant), every active-set iteration checks the
    clock and raises TimeLimit once it has passed."""
    start = np.zeros(prob.n) if x0 is None else np.asarray(x0, dtype=float)
    x, cert, iters1 = _phase1(prob, np.clip(start, prob.lb, prob.ub), deadline)
    if x is None:
        return QpSolution(status="infeasible", certificate=cert, iterations=iters1)

    solver = _ActiveSet(
        prob.c, prob.d, prob.A_eq, prob.b_eq, prob.A_in, prob.b_in, prob.lb, prob.ub
    )
    status, x, work, state, out, iters = solver.run(x, *solver.start(x), deadline)
    iters += iters1
    if status == "unbounded":
        return QpSolution(status="unbounded", x=x, ray=out, iterations=iters)

    y, mu_w, r = out
    mu_in = np.zeros(len(prob.b_in))
    mu_in[work] = np.maximum(mu_w, 0.0)
    nu_lower, nu_upper = _bound_multipliers(state, r)
    return QpSolution(
        status="optimal",
        x=x,
        objective=prob.objective(x),
        y_eq=y,
        mu_in=mu_in,
        nu_lower=nu_lower,
        nu_upper=nu_upper,
        iterations=iters,
    )


def check_kkt(prob: QpProblem, sol: QpSolution, tol: float = 1e-8) -> KktReport:
    """Residuals of stationarity, primal feasibility, dual sign and
    complementarity for a candidate solution."""
    x = sol.x
    primal = 0.0
    dual = 0.0
    comp = 0.0
    if len(prob.b_eq):
        primal = max(primal, float(np.max(np.abs(prob.A_eq @ x - prob.b_eq))))
    if len(prob.b_in):
        slack = prob.b_in - prob.A_in @ x
        primal = max(primal, float(np.max(-slack)))
        comp = max(comp, float(np.max(np.abs(sol.mu_in * slack))))
        dual = max(dual, float(np.max(-sol.mu_in)))
    lo_ok = np.isfinite(prob.lb)
    hi_ok = np.isfinite(prob.ub)
    if np.any(lo_ok):
        s = (x - prob.lb)[lo_ok]
        primal = max(primal, float(np.max(-s)))
        comp = max(comp, float(np.max(np.abs(sol.nu_lower[lo_ok] * s))))
    if np.any(hi_ok):
        s = (prob.ub - x)[hi_ok]
        primal = max(primal, float(np.max(-s)))
        comp = max(comp, float(np.max(np.abs(sol.nu_upper[hi_ok] * s))))
    dual = max(
        dual,
        float(np.max(-sol.nu_lower)) if len(sol.nu_lower) else 0.0,
        float(np.max(-sol.nu_upper)) if len(sol.nu_upper) else 0.0,
    )
    grad = prob.c + prob.d * x
    stat = grad - sol.nu_upper + sol.nu_lower
    if len(prob.b_eq):
        stat = stat - prob.A_eq.T @ sol.y_eq
    if len(prob.b_in):
        stat = stat - prob.A_in.T @ sol.mu_in
    stationarity = float(np.max(np.abs(stat))) if len(stat) else 0.0
    return KktReport(
        stationarity=stationarity, primal=primal, dual=dual,
        complementarity=comp, tol=tol,
    )
