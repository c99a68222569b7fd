"""Dense active-set solver for concave quadratic programs.

Solves

    maximize    c'x + 1/2 sum_i d_i x_i^2        (d_i <= 0)
    subject to  A_eq x  = b_eq
                A_in x <= b_in
                lb <= x <= ub

with a primal active-set method.  Bounds stay bounds: each column is
free, at its lower bound or at its upper bound (columns with lb == ub
stay pinned), and steps move the free columns within the null space of
the working rows.  A row whose activity over the box misses its limit
proves infeasibility at once; otherwise, when the start clipped into the
box is infeasible, a phase-1 pass with artificial slacks on the equality
rows and the violated inequality rows decides.  A solve may instead start
from the optimum of a problem that differs in some pinned columns (a
branch-and-bound parent): a parametric pass moves those columns to their
values while it keeps the parent's working set optimal.
At a stationary point the working row or bound with the most negative
multiplier leaves (Dantzig's rule; Gill, Murray and Wright, 1981, 5.2);
right after a zero-length step the first wrong-signed one leaves instead
(Bland, 1977), so degenerate steps cannot cycle.  All tie-breaks pick the
lowest index (working rows by position, then bounds by column), so results
are deterministic.
"""

from __future__ import annotations

import bisect
import time
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from math import sqrt
from typing import Callable, Optional, Union

import numpy as np
# the LAPACK gufuncs that np.linalg.svd (full_matrices=True) and
# np.linalg.eigh (UPLO="L") call, called directly: the same bits without
# the wrappers' checks, errstate and result wrapping, which cost as much as
# LAPACK itself on working sets of a few rows.  On non-convergence they
# return NaN (with numpy's "invalid value" RuntimeWarning) instead of
# raising, so their callers check the outputs
from numpy.linalg._umath_linalg import eigh_lo, svd_f

from .errors import SolverFailure, TimeLimit
from .tolerances import (
    CURV_TOL, DUAL_TOL, FEAS_TOL, INFEAS_TOL, RANK_TOL, RATE_TOL, ROUND_TOL, STEP_TOL, TIE_TOL,
)

# working-set factorizations a problem keeps (``QpProblem.factors``), the
# least recently used leaving first.  Over instance seeds 1000-1099, exact
# and heuristic, paradox's 4,240 lookups need 2,393 SVDs with 8 entries and
# 2,291 with 16 or with no bound; day-book's 4,930 need 4,044, 4,041 and
# 4,036 (measured with FixFlow on the optimal face)
FACTOR_CACHE_SIZE = 16


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
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.b_in = np.asarray(self.b_in, dtype=float)
        self.A_eq = np.asarray(self.A_eq, dtype=float).reshape(len(self.b_eq), n)
        self.A_in = np.asarray(self.A_in, dtype=float).reshape(len(self.b_in), n)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        if np.count_nonzero(self.d > ROUND_TOL):
            raise ValueError("quadratic diagonal must be nonpositive")

    @property
    def n(self) -> int:
        return len(self.c)

    # ``_lowest_activity`` over the box, when the problem's maker computed
    # it (``with_bounds``); the row test then reads it
    _box_activity = None

    def with_bounds(self, lb: np.ndarray, ub: np.ndarray, activity=None) -> "QpProblem":
        """This problem with the float arrays ``lb`` and ``ub`` as its box.
        The copy shares the other arrays, already converted and checked,
        the stacked rows of the row activity test (``_lowest_activity``),
        built here once, and the factor cache of its rows (``factors``), so
        a node reuses the factorizations of every node solved before it.
        ``activity``, when given, is ``_lowest_activity`` over the new box,
        as the master's node pass computed it; this box's is not copied."""
        self._activity_rows, self.factors  # made before the copy, so that copies share them
        node = QpProblem.__new__(QpProblem)
        node.__dict__ = {**self.__dict__, "lb": lb, "ub": ub, "_box_activity": activity}
        return node

    @cached_property
    def _activity_rows(self):
        # equality rows as they are (lowest activity) and negated (highest),
        # the activity above which a row is broken (``_lowest_activity``;
        # limits relaxed by INFEAS_TOL) and the coefficients' signs
        M = np.concatenate((self.A_in, self.A_eq, -self.A_eq))
        limit = np.concatenate((self.b_in, self.b_eq, -self.b_eq)) + INFEAS_TOL
        broken = limit + FEAS_TOL * np.maximum(1.0, np.abs(limit))
        return M, broken, M > 0.0, M < 0.0

    @cached_property
    def factors(self) -> OrderedDict:
        """The ``_Factor``s of working sets that solves of this problem
        built (``_ActiveSet._factorize``), least recently used first.  An
        entry depends only on the equality rows, the inequality rows it
        names and ``d``, so a problem that appends inequality rows to these
        may take this cache over; one whose rows differ must not."""
        return OrderedDict()

    def objective(self, x: np.ndarray) -> float:
        return float(self.c @ x + 0.5 * (self.d * x * x).sum())


@dataclass(frozen=True)
class WorkingSet:
    """Where an optimal solve ended: its working rows (indices into
    ``A_in``, ascending) and one state per column (FREE, LOWER, UPPER or
    PINNED).  It prices the solution (``multipliers``) and starts a solve
    of a nearby problem (``solve_qp``'s ``start``)."""

    rows: tuple[int, ...]
    state: np.ndarray


@dataclass
class QpSolution:
    status: str  # optimal | infeasible | unbounded
    x: Optional[np.ndarray] = None
    objective: float = float("nan")
    ray: Optional[np.ndarray] = None
    certificate: Optional[dict] = None
    # active-set iterations: phase 1 and phase 2, plus the breakpoints of a
    # parametric start
    iterations: int = 0
    working: Optional[WorkingSet] = None  # when optimal
    # when optimal, the multipliers the last iteration computed to prove it:
    # (y, mu_w, r), the equality and working-row multipliers (in
    # ``working.rows`` order) and the reduced gradient  g - K'lam, from which
    # ``multipliers`` builds the bound multipliers without a factorization
    duals: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


@dataclass
class Multipliers:
    y_eq: np.ndarray
    mu_in: np.ndarray
    nu_lower: np.ndarray
    nu_upper: np.ndarray


def _factor(K: np.ndarray):
    """``_Factor``'s SVD: (Z, P, Vr) from  K = U S V'  with the RANK_TOL
    rank rule: Z spans the null space of K, and  P @ (Vr @ g)  applies the
    truncated pseudo-inverse of K' to g, which gives the least-squares
    multipliers.  Raises SolverFailure when LAPACK does not converge."""
    if K.shape[0] == 0:
        return np.eye(K.shape[1]), np.zeros((0, 0)), np.zeros((0, K.shape[1]))
    u, s, vt = svd_f(K, signature="d->ddd")
    if not s @ s < np.inf:
        raise SolverFailure("the SVD of a working set did not converge")
    tol = max(K.shape) * (float(s[0]) if len(s) else 0.0) * RANK_TOL + RANK_TOL
    rank = int(np.count_nonzero(s > tol))
    return vt[rank:].T, u[:, :rank] / s[:rank], vt[:rank]


class _Factor:
    """The factorization of one working set's working matrix K, built from
    the free columns' indices ``free`` and the quadratic diagonal d.

    It holds ``free``, ``Z``, an orthonormal basis of the null space of
    K's free columns, their ``rank`` and, when the free columns curve,
    ``curv`` = (w, V, Vc, wc): the eigendecomposition of the reduced
    Hessian  Z'DZ,  whose ascending eigenvalues put the curved ones (below
    -CURV_TOL times the largest |w| or 1) first, and their columns of V
    and entries of w; otherwise None.  Its arrays are read-only.  It
    answers the kernel's least-squares questions (``lstsq``,
    ``least_norm``, ``dependent``) from one SVD (``_factor``), whose parts
    no other code reads.  Raises SolverFailure when LAPACK does not
    converge."""

    __slots__ = ("free", "Z", "rank", "curv", "_P", "_Vr")

    def __init__(self, K, free, d):
        Z, self._P, self._Vr = _factor(K.take(free, axis=1))
        self.free, self.Z, self.rank, self.curv = free, Z, len(self._Vr), None
        df = d.take(free)
        if Z.shape[1] and np.count_nonzero(df):
            H = Z.T @ (df[:, None] * Z)
            # eigh of a 1 x 1 matrix returns exactly its entry and [[1.0]]
            w, V = (H[0], np.ones((1, 1))) if len(H) == 1 else eigh_lo(H, signature="d->dd")
            if not w @ w < np.inf:
                raise SolverFailure("the eigendecomposition of a reduced Hessian did not converge")
            scale = max(1.0, abs(float(w[0])), abs(float(w[-1])))
            k = int(np.count_nonzero(w < -CURV_TOL * scale))
            # V[:, :k] laid out as V[:, curved] is: column-major
            self.curv = (w, V, V[:, :k].copy(order="F"), w[:k])
        for a in (Z, self._P, self._Vr, free, *(self.curv or ())):
            a.setflags(write=False)

    def lstsq(self, g):
        """The least-squares working-row multipliers of the gradient g (n
        entries, or n x k for k gradients), minimum-norm when the working
        rows are dependent on the free columns."""
        return self._P @ (self._Vr @ g.take(self.free, axis=0))

    def least_norm(self, r):
        """The least-norm step of the free columns that changes the working
        rows' activities by r, for r in the range of K's free columns."""
        return self._Vr.T @ (self._P.T @ r)

    def dependent(self, a):
        """True when the constraint with normal a is a combination of the
        working constraints: no part of it, beyond round-off, lies in their
        null space."""
        za = self.Z.T @ a.take(self.free)
        return sqrt(za @ za) <= FEAS_TOL * max(1.0, sqrt(a @ a))


# column states: bounds stay bounds, never rows of the working matrix
FREE, LOWER, UPPER, PINNED = 0, 1, 2, 3
# per state, the sign that makes a bound's reduced gradient its multiplier
_SIDE = np.array([0.0, -1.0, 1.0, 0.0])


class _ActiveSet:
    """Active-set iteration on  max c'x + 1/2 x'Dx,  Ax=b,  Gx<=h,  lb<=x<=ub.

    The working set is a sorted list of rows of G plus one state per
    column; steps move only the free columns.  A blocking constraint is
    numbered  i < len(h)  for row i,  len(h) + j  for the upper bound of
    column j and  len(h) + n + j  for its lower bound, and ties go to the
    lowest number."""

    def __init__(self, c, d, A, b, G, h, lb, ub, factors=None):
        self.c, self.d, self.A, self.b, self.G, self.h, self.lb, self.ub = c, d, A, b, G, h, lb, ub
        self.n = len(c)
        self.factors = OrderedDict() if factors is None else factors
        self.limits = np.concatenate((h, ub, -lb))  # ``_ratio``'s, in its numbering

    def start(self, x):
        """Working rows and column states of the constraints tight at x."""
        work = (np.abs(self.G @ x - self.h) <= FEAS_TOL).nonzero()[0].tolist()
        state = np.zeros(self.n, dtype=int)  # FREE
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
        degenerate = False  # the last ratio test gave a zero-length step
        for it in range(max_iter):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeLimit("QP solve passed its deadline")
            # one factorization serves the step and the multipliers; an
            # unblocked step keeps the working set, so the next iteration
            # finds it in the cache
            K, factor = self._factorize(work, state)
            free, Z, curv = factor.free, factor.Z, factor.curv
            g = c + d * x
            p = None  # the Newton step, when the free columns curve
            ascent = None  # flat null-space direction along which g ascends
            if Z.shape[1]:
                gz = Z.T @ g.take(free)
                if curv is not None:
                    # Newton step along the curved directions (the leading
                    # ones), ascent along the flat ones, if any
                    w, V, _, wc = curv
                    gv = V.T @ gz
                    k = len(wc)
                    step = np.zeros(len(w))
                    step[:k] = -gv[:k] / wc
                    gv[:k] = 0.0
                    if k < len(w) and sqrt(gv @ gv) > DUAL_TOL:
                        ascent = V @ gv
                    p = np.zeros(n)
                    p[free] = Z @ (V @ step)
                elif sqrt(gz @ gz) > DUAL_TOL:
                    # no curvature on the free columns: every direction is flat
                    ascent = gz

            if ascent is not None:
                # objective ascends linearly and forever along this ray
                ray = np.zeros(n)
                ray[free] = Z @ ascent
                ray /= sqrt(ray @ ray)
                alpha, block = self._ratio(x, ray, ray, work, np.inf)
                degenerate = alpha == 0.0
                if block is None:
                    return "unbounded", x, work, state, ray, it
                x = self._step(x, alpha, ray, block, work, state)
                continue

            if p is None or sqrt(p @ p) <= STEP_TOL * max(1.0, sqrt(x @ x)):
                # working-row multipliers, then the bound multipliers: the
                # reduced gradient signed by side, in ``_signed_duals``' order
                lam = factor.lstsq(g)
                r = g - K.T @ lam
                duals = np.concatenate((lam[m:], _SIDE[state] * r))
                wrong = duals < -DUAL_TOL
                if not np.count_nonzero(wrong):
                    return "optimal", x, work, state, (lam[:m], lam[m:], r), it
                # the most negative multiplier leaves (Dantzig's rule), the
                # lowest index on ties; after a zero-length step the first
                # wrong-signed one does (Bland, 1977), so that a degenerate
                # cycle, made of such steps only, cannot form
                k = int(wrong.argmax()) if degenerate else int(duals.argmin())
                self._release(k, work, state)
                continue

            alpha, block = self._ratio(x, p, p, work, 1.0)
            degenerate = alpha == 0.0
            x = self._step(x, alpha, p, block, work, state)
        raise SolverFailure("active-set iteration limit reached")

    def follow(self, x, work, state, deadline=None):
        """(x, breakpoints) at the end of a parametric pass, or None when
        the pass cannot go on.

        The pass starts from x, optimal with ``work`` and ``state`` for
        this problem with its moving columns (PINNED, but away from their
        value) held where x has them, and moves those columns in a straight
        line to their values (Best, 1996; Ferreau, Kirches, Potschka, Bock
        and Diehl, 2014).  On each segment the free columns keep the
        working rows tight and the gradient in the range of their rows,
        with no component along flat directions, and the multipliers follow
        by least squares, all from the segment's one ``_Factor``.  A segment
        ends at the first breakpoint: a working row or bound whose
        multiplier reaches the wrong sign leaves the working set (working
        rows by position, then bounds by column, on ties), or else a
        constraint that becomes tight joins it (``_ratio``'s order).  A joining constraint that
        depends on the working set takes the place of the one whose
        multiplier reaches zero first as its own grows (``_exchange``); so
        does a moving column that the working rows need, as it starts to
        move.  Breakpoints up to ROUND_TOL past the end still count, and a
        dependent one there stays out of the working set.  The pass gives
        up when the working rows stay dependent on the free columns, when a
        dependent constraint has nothing to replace, or after
        ``2n + len(h) + 5`` breakpoints."""
        c, d, n, nh, lb = self.c, self.d, self.n, len(self.h), self.lb
        pinned = state == PINNED
        # a column that round-off alone keeps from its value takes it at once
        x = np.where(pinned & (np.abs(x - lb) <= ROUND_TOL * np.maximum(1.0, np.abs(lb))), lb, x)
        move = pinned & (x != lb)
        entering = move.nonzero()[0].tolist()
        if not entering:
            return x, 0
        steps = 0
        while True:
            if steps > 2 * n + nh + 5:
                return None
            if deadline is not None and time.monotonic() > deadline:
                raise TimeLimit("QP solve passed its deadline")
            K, factor = self._factorize(work, state)
            if factor.rank < len(K):
                # the working rows need a moving column: it enters as a
                # bound pushing it toward its value, in place of another
                if not entering:
                    return None
                j = entering.pop(0)
                state[j] = FREE
                K, factor = self._factorize(work, state)
                a = np.zeros(n)
                a[j] = -1.0 if lb[j] > x[j] else 1.0
                dropped = factor.dependent(a) and self._exchange(a, x, work, state, K, factor)
                state[j] = PINNED
                if not dropped:
                    return None
                steps += 1
                continue
            entering = []
            free, Z, curv = factor.free, factor.Z, factor.curv
            # per unit of the segment: the moving columns' remaining way,
            # and the free columns' least-norm answer plus the curved
            # null-space part that keeps them stationary
            dx = np.where(move, lb - x, 0.0)
            dxf = -factor.least_norm(K @ dx)
            if curv is not None:
                Vc, wc = curv[2:]
                gv = Vc.T @ (Z.T @ (d.take(free) * dxf))
                dxf -= Z @ (Vc @ (gv / wc))
            dx[free] = dxf
            # the least-norm answer smears round-off over every free column;
            # one the exact step leaves alone must stay where it is
            size = np.abs(dx)
            dx[size <= TIE_TOL * size[size.argmax()]] = 0.0
            grads = np.empty((n, 2))  # np.column_stack's layout
            grads[:, 0], grads[:, 1] = c + d * x, d * dx
            duals = self._signed_duals(state, K, factor, grads)
            # a constraint that becomes tight at the end, up to round-off,
            # still joins, as it would on a vertex-to-vertex path
            dx_free = np.zeros(n)
            dx_free[free] = dx.take(free)
            alpha, block = self._ratio(x, dx, dx_free, work, 1.0 + ROUND_TOL)
            t, k = _first_zero(duals[:, 0], -duals[:, 1])
            if k is not None and t < min(alpha, 1.0):
                x = x + t * dx
                self._release(k, work, state)
                steps += 1
                continue
            end = alpha >= 1.0
            x = x + min(alpha, 1.0) * dx
            if end:
                x[move] = lb[move]
            dependent = False
            if block is not None:
                if block < nh:
                    a = self.G[block]
                else:
                    a = np.zeros(n)
                    a[(block - nh) % n] = 1.0 if block < nh + n else -1.0
                dependent = factor.dependent(a)
            if block is None or (end and dependent):
                # at the end, a constraint the working set implies may stay
                # out; a bound it reaches still takes its value exactly
                if dependent and block >= nh:
                    j = (block - nh) % n
                    x[j] = (self.ub if block < nh + n else lb)[j]
                return x, steps
            if dependent and not self._exchange(a, x, work, state, K, factor):
                return None
            x = self._step(x, 0.0, dx, block, work, state)
            steps += 1
            if end:
                return x, steps

    def _factorize(self, work, state):
        """(K, factor): the working matrix of the working rows and the
        ``_Factor`` of its free columns.  ``self.factors`` keeps the
        factors, keyed by the working rows and free columns, and not K,
        which outweighs them at a few hundred columns: a hit returns the
        factor a miss built."""
        mask = state == FREE
        key = (tuple(work), mask.tobytes())
        K = np.concatenate((self.A, self.G.take(work, axis=0))) if work else self.A
        factor = self.factors.get(key)
        if factor is not None:
            self.factors.move_to_end(key)
            return K, factor
        factor = self.factors[key] = _Factor(K, mask.nonzero()[0], self.d)
        if len(self.factors) > FACTOR_CACHE_SIZE:
            self.factors.popitem(last=False)
        return K, factor

    def _signed_duals(self, state, K, factor, grads):
        """Per column of ``grads`` (n x k): the least-squares multipliers of
        the working rows on the free columns, then one bound multiplier per
        column from the reduced gradient, signed so that each is
        nonnegative at an optimum (zero for free and pinned columns)."""
        lam = factor.lstsq(grads)
        return np.concatenate((lam[len(self.b):], _SIDE[state][:, None] * (grads - K.T @ lam)))

    def _exchange(self, a, x, work, state, K, factor):
        """Make room at x for the constraint with normal a, a combination of
        the working constraints: as its multiplier grows, theirs fall by
        their coefficients in a, and the first to reach zero leaves (lowest
        number on ties).  False when none falls."""
        grads = np.column_stack((self.c + self.d * x, a))
        duals = self._signed_duals(state, K, factor, grads)
        _, k = _first_zero(duals[:, 0], duals[:, 1])
        if k is None:
            return False
        self._release(k, work, state)
        return True

    @staticmethod
    def _release(k, work, state):
        """Drop the k-th constraint in ``_signed_duals``' order: working
        rows by position, then bounds by column."""
        if k < len(work):
            del work[k]
        else:
            state[k - len(work)] = FREE

    def _ratio(self, x, p, pf, work, alpha_max):
        """(alpha, block) of the step along p, whose free part is pf: a lower
        bound's slack  x - lb  is taken as  -lb - (-x),  the same number."""
        gp = self.G @ p
        if work:
            gp.put(work, 0.0)
        rate = np.concatenate((gp, pf, -pf))
        hit = (rate > RATE_TOL).nonzero()[0]
        if not len(hit):
            return alpha_max, None
        # a slack that an infinite bound makes infinite gives an infinite
        # ratio, which blocks nothing
        slack = (self.limits - np.concatenate((self.G @ x, x, -x))).take(hit)
        ratios = np.maximum(slack, 0.0) / rate.take(hit)
        alpha = float(ratios[ratios.argmin()])
        if not alpha < alpha_max - TIE_TOL:
            return alpha_max, None
        k = int((ratios <= alpha + TIE_TOL).argmax())
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


def _first_zero(level, rate):
    """(t, k): the least t >= 0 at which ``level - t * rate`` reaches zero
    in an entry whose rate is positive, and the lowest such entry; (inf,
    None) when no rate is positive.  Entries already below zero count as
    zero."""
    falling = (rate > RATE_TOL).nonzero()[0]
    ratios = np.maximum(level.take(falling), 0.0) / rate.take(falling)
    t = float(ratios[ratios.argmin()]) if len(falling) else np.inf
    if t == np.inf:
        return t, None
    return t, int(falling[(ratios <= t + TIE_TOL).argmax()])


# per state, whether its column takes a lower- or an upper-bound multiplier
_AT_LOWER = np.array([False, True, False, True])
_AT_UPPER = np.array([False, False, True, True])


def _bound_multipliers(state, r):
    """Lower- and upper-bound multipliers from the reduced gradient r; a
    pinned column takes the side its sign says."""
    return (np.where(_AT_LOWER[state], np.maximum(-r, 0.0), 0.0),
            np.where(_AT_UPPER[state], np.maximum(r, 0.0), 0.0))


def _phase1(prob: QpProblem, x0: np.ndarray, deadline=None):
    """(x, None, iterations) with a feasible point from the start x0 (inside
    the box), or (None, certificate, iterations) when none exists.  When x0
    breaks a row, phase 1 builds its artificial problem, with slacks on the
    equality rows and the rows x0 violates only (the box stays a box).  A
    certificate names the rows and box bounds with nonzero phase-1
    multipliers, which carry the proof."""
    n = prob.n
    A, b, G, h = prob.A_eq, prob.b_eq, prob.A_in, prob.b_in
    r_eq = b - A @ x0
    excess = G @ x0 - h
    viol = (excess > FEAS_TOL).nonzero()[0]
    if np.count_nonzero(np.abs(r_eq) <= FEAS_TOL) == len(b) and len(viol) == 0:
        return x0, None, 0
    # z = [x, s_eq, s_in], all artificials nonnegative, maximize -sum(s)
    m, k = len(b), len(viol)
    A1 = np.concatenate([A, np.diag(np.where(r_eq >= 0, 1.0, -1.0)), np.zeros((m, k))], axis=1)
    G1 = np.concatenate([G, np.zeros((len(h), m)), -np.eye(len(h))[:, viol]], axis=1)
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


def _lowest_activity(prob: QpProblem, lb, ub):
    """(low, row) of prob's stacked rows (``_activity_rows``) over the box
    lb..ub: each row's lowest activity (a zero coefficient adds no term,
    so an open box gives -inf but no NaN), and the first row whose lowest
    activity exceeds its limit by more than FEAS_TOL times the larger of 1
    and the limit, or None.  Phase 1 calls such a problem infeasible, as
    the artificial on that row must carry over INFEAS_TOL."""
    M, broken, pos, neg = prob._activity_rows
    low = (M * np.where(pos, lb, np.where(neg, ub, 0.0))).sum(axis=1)
    over = (low > broken).nonzero()[0]
    return low, int(over[0]) if len(over) else None


def _row_test(prob: QpProblem) -> Optional[dict]:
    """The certificate of the first row that prob's box breaks
    (``_lowest_activity``): the row, its positive columns' lower bounds and
    its negative columns' upper bounds; None when no row breaks."""
    if len(prob.b_in) or len(prob.b_eq):  # a problem without rows stacks none
        _, row = prob._box_activity or _lowest_activity(prob, prob.lb, prob.ub)
        if row is not None:
            _, _, pos, neg = prob._activity_rows
            m_in = len(prob.b_in)
            # the equality rows stack twice, after the inequality rows
            eq, ineq = ([], [row]) if row < m_in else ([(row - m_in) % len(prob.b_eq)], [])
            return {"eq": eq, "in": ineq, "upper": neg[row].nonzero()[0].tolist(),
                    "lower": pos[row].nonzero()[0].tolist()}
    return None


def rows_hold(prob: QpProblem, x: np.ndarray) -> bool:
    """True when x satisfies prob's rows at FEAS_TOL.  Of prob it reads
    ``A_eq``, ``b_eq``, ``A_in`` and ``b_in`` only, so any object that
    holds these (pricing's, before it builds a problem) will do."""
    return (
        np.count_nonzero(np.abs(prob.A_eq @ x - prob.b_eq) <= FEAS_TOL) == len(prob.b_eq)
        and np.count_nonzero(prob.A_in @ x <= prob.b_in + FEAS_TOL) == len(prob.b_in)
    )


def _warm_start(solver: _ActiveSet, prob: QpProblem, start: QpSolution, deadline):
    """(x, work, state, breakpoints) for prob from ``start``, the
    optimum of a problem with the same columns, objective, equality rows
    and leading inequality rows, which prob extends by more inequality
    rows and by pinning columns; None to fall back to phase 1.  The start
    must satisfy prob's rows, so a new row it violates means a fallback.
    ``_ActiveSet.follow`` then moves the pinned columns to their values,
    and its end point must be feasible at FEAS_TOL."""
    if not rows_hold(prob, start.x):
        return None
    work, state = list(start.working.rows), start.working.state.copy()
    state[prob.lb == prob.ub] = PINNED
    out = solver.follow(start.x, work, state, deadline)  # which leaves start.x as it is
    if out is None:
        return None
    x, breakpoints = out
    inside = (x >= prob.lb - FEAS_TOL) & (x <= prob.ub + FEAS_TOL)
    if not (rows_hold(prob, x) and np.count_nonzero(inside) == prob.n):
        return None
    return x, work, state, breakpoints


def _clipped(prob: QpProblem, x0) -> np.ndarray:
    """x0 (the origin when None) clipped into prob's box: np.clip's values,
    a bound on ties included, in two cheaper ufunc calls."""
    first = np.zeros(prob.n) if x0 is None else np.asarray(x0, dtype=float)
    return np.minimum(np.maximum(first, prob.lb), prob.ub)


def solve_qp(
    prob: QpProblem,
    *,
    x0: Union[np.ndarray, Callable[[], np.ndarray], None] = None,
    deadline: Optional[float] = None,
    start: Optional[QpSolution] = None,
) -> QpSolution:
    """Optimum, infeasibility certificate or ascent ray of prob.

    Every infeasible verdict comes from here, so callers run no test of
    their own.  The row test (``_row_test``) comes first: a row whose
    activity over the box misses its limit by more than INFEAS_TOL ends the
    solve with no iteration and a certificate of the row, its positive
    columns' lower and negative columns' upper bounds.  It runs ahead of
    ``start`` and of building x0, except that an array x0 (or None) that,
    clipped into the box, holds every row skips it: no row's lowest
    activity over the box exceeds its activity at a point of the box.
    With ``start``, the optimal solution of a parent problem that prob
    extends by pinned columns or added inequality rows (a branch-and-bound
    child, see ``_warm_start``), a parametric pass moves the parent's
    optimum and working set to prob's pinned values, and phase 2 goes on
    from there, usually confirming the optimum at once.  Without ``start``,
    or when that pass falls back, the search starts from x0 clipped into
    the box (the clipped origin when x0 is None; every clearing QP passes
    ``model.balanced_start``, the clipped point with each clearing row
    balanced along its own curve, and pricing passes the welfare QP's
    multipliers), and phase 1 runs only when
    that point is infeasible; past the row test only its artificial
    problem proves infeasibility.  x0 may be a function that builds the
    start, called only when the search needs it.  A fallback's
    breakpoints are not counted in ``iterations``.  With a ``deadline`` (a
    ``time.monotonic()`` instant), every active-set iteration and
    breakpoint checks the clock and raises TimeLimit once it has passed.
    An optimal solution carries its ``working`` set and the ``duals`` that
    proved it optimal, from which ``multipliers`` builds its multipliers.
    The active-set steps take their factorizations from ``prob.factors``;
    phase 1 keeps its own."""
    array = start is None and not callable(x0)
    x = _clipped(prob, x0) if array else None
    if not (array and rows_hold(prob, x)):
        cert = _row_test(prob)
        if cert is not None:
            return QpSolution(status="infeasible", certificate=cert)
    solver = _ActiveSet(
        prob.c, prob.d, prob.A_eq, prob.b_eq, prob.A_in, prob.b_in, prob.lb, prob.ub,
        prob.factors,
    )
    warm = None if start is None else _warm_start(solver, prob, start, deadline)
    if warm is None:
        x = x if array else _clipped(prob, x0() if callable(x0) else x0)
        x, cert, iters1 = _phase1(prob, x, deadline)
        if x is None:
            return QpSolution(status="infeasible", certificate=cert, iterations=iters1)
        work, state = solver.start(x)
    else:
        x, work, state, iters1 = warm
    status, x, work, state, out, iters = solver.run(x, work, state, deadline)
    iters += iters1
    if status == "unbounded":
        return QpSolution(status="unbounded", x=x, ray=out, iterations=iters)
    return QpSolution(
        status="optimal",
        x=x,
        objective=prob.objective(x),
        iterations=iters,
        working=WorkingSet(tuple(work), state),
        duals=out,
    )


def multipliers(prob: QpProblem, sol: QpSolution) -> Multipliers:
    """Multipliers of ``sol``, an optimal solution of prob or of a problem
    with prob's columns, equality rows and leading inequality rows, from
    the ``duals`` its solve ended with: the least-squares equality and
    working-row multipliers on the free columns of its working set at
    ``sol.x`` (minimum-norm when the working rows are dependent), and the
    bound multipliers from the reduced gradient, where a pinned column
    takes the side its sign says."""
    y, mu_w, r = sol.duals
    mu_in = np.zeros(len(prob.b_in))
    mu_in[list(sol.working.rows)] = np.maximum(mu_w, 0.0)
    nu_lower, nu_upper = _bound_multipliers(sol.working.state, r)
    return Multipliers(y_eq=y, mu_in=mu_in, nu_lower=nu_lower, nu_upper=nu_upper)
