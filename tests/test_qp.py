from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from daclear import qp, tolerances
from daclear.errors import SolverFailure, TimeLimit
from daclear.qp import QpProblem, multipliers, solve_qp

from helpers import bench_instance, check_kkt, kernel_reference_spy, reference_factor, same_bits


def _prob(c, d, **kw):
    n = len(c)
    defaults = dict(
        A_eq=np.zeros((0, n)), b_eq=np.zeros(0),
        A_in=np.zeros((0, n)), b_in=np.zeros(0),
        lb=np.full(n, -np.inf), ub=np.full(n, np.inf),
    )
    defaults.update(kw)
    return QpProblem(c=np.asarray(c, float), d=np.asarray(d, float), **defaults)


def _random_problem(rng, n=None):
    n = n or int(rng.integers(1, 6))
    d = -rng.uniform(0.0, 2.0, size=n)
    d[rng.random(n) < 0.3] = 0.0
    c = rng.uniform(-5, 5, size=n)
    m_eq = int(rng.integers(0, min(n, 2) + 1))
    m_in = int(rng.integers(0, 4))
    A_eq = rng.uniform(-2, 2, size=(m_eq, n))
    b_eq = rng.uniform(-3, 3, size=m_eq)
    A_in = rng.uniform(-2, 2, size=(m_in, n))
    b_in = rng.uniform(0, 5, size=m_in)
    lb = rng.uniform(-4, -1, size=n)
    ub = rng.uniform(1, 4, size=n)
    return _prob(c, d, A_eq=A_eq, b_eq=b_eq, A_in=A_in, b_in=b_in, lb=lb, ub=ub)


class TestSolve:
    def test_unconstrained_concave(self):
        # max 3x - x^2 at x = 1.5
        sol = solve_qp(_prob([3.0], [-2.0]))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.5, abs=1e-10)
        assert sol.objective == pytest.approx(2.25, abs=1e-10)

    def test_box_clipped(self):
        prob = _prob([3.0], [-2.0], lb=np.array([-1.0]), ub=np.array([1.0]))
        sol = solve_qp(prob)
        assert sol.x[0] == pytest.approx(1.0, abs=1e-10)
        assert multipliers(prob, sol).nu_upper[0] == pytest.approx(1.0, abs=1e-8)

    def test_equality_projection(self):
        # max -(x^2+y^2)/2 s.t. x + y = 2 -> (1, 1)
        prob = _prob([0.0, 0.0], [-1.0, -1.0],
                     A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([2.0]))
        sol = solve_qp(prob)
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-10)
        assert multipliers(prob, sol).y_eq[0] == pytest.approx(-1.0, abs=1e-8)

    def test_pure_lp(self):
        sol = solve_qp(_prob([1.0, -1.0], [0.0, 0.0],
                             lb=np.zeros(2), ub=np.ones(2)))
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-10)

    def test_unbounded_ray(self):
        sol = solve_qp(_prob([1.0], [0.0], lb=np.array([0.0])))
        assert sol.status == "unbounded"
        assert sol.ray is not None
        assert sol.ray[0] > 0

    def test_infeasible_certificate(self):
        sol = solve_qp(_prob([0.0], [0.0],
                             A_in=np.array([[1.0], [-1.0]]),
                             b_in=np.array([-1.0, -1.0])))
        assert sol.status == "infeasible"
        assert sol.certificate is not None

    def test_iterations_include_phase1(self):
        # zero objective: the start 0 misses x1 + x2 = 1, so every
        # iteration happens in phase 1
        sol = solve_qp(_prob([0.0, 0.0], [0.0, 0.0],
                             A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
                             lb=np.zeros(2), ub=np.ones(2)))
        assert sol.status == "optimal"
        assert sol.iterations >= 1

    def test_rejects_positive_curvature(self):
        with pytest.raises(Exception):
            _prob([0.0], [1.0])

    def test_degenerate_flat_directions(self):
        # objective ignores y; y pinned only by inequality
        sol = solve_qp(_prob([1.0, 0.0], [-1.0, 0.0],
                             A_in=np.array([[0.0, 1.0]]), b_in=np.array([3.0]),
                             lb=np.array([-np.inf, 0.0]),
                             ub=np.array([np.inf, np.inf])))
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-10)


class TestKkt:
    def test_report_on_optimum(self):
        rng = np.random.default_rng(11)
        prob = _random_problem(rng)
        sol = solve_qp(prob)
        if sol.status == "optimal":
            rep = check_kkt(prob, sol)
            assert rep.passed
            assert rep.max_residual <= 1e-8

    def test_kept_multipliers_match_a_fresh_factorization(self):
        # ``multipliers`` reads the duals the optimal exit computed; the
        # reference factors the working matrix again and solves for them
        from test_acceptance import _random_qp

        rng = np.random.default_rng(99)
        solved = 0
        for _ in range(1000):
            prob = _random_qp(rng, int(rng.integers(1, 21)))
            sol = solve_qp(prob)
            if sol.status != "optimal":
                continue
            work, state = list(sol.working.rows), sol.working.state
            free = state == qp.FREE
            K = np.concatenate((prob.A_eq, prob.A_in[work]))
            g = prob.c + prob.d * sol.x
            lam = qp._Factor(K, free.nonzero()[0], prob.d).lstsq(g)
            m = len(prob.b_eq)
            mu_in = np.zeros(len(prob.b_in))
            mu_in[work] = np.maximum(lam[m:], 0.0)
            nu_lower, nu_upper = qp._bound_multipliers(state, g - K.T @ lam)
            kept = multipliers(prob, sol)
            for name, ref in (("y_eq", lam[:m]), ("mu_in", mu_in),
                              ("nu_lower", nu_lower), ("nu_upper", nu_upper)):
                assert np.max(np.abs(getattr(kept, name) - ref), initial=0.0) <= 1e-12
            solved += 1
        assert solved >= 500

    def test_detects_tampering(self):
        prob = _prob([3.0], [-2.0], lb=np.array([-5.0]), ub=np.array([5.0]))
        sol = solve_qp(prob)
        sol.x[0] = 0.3
        rep = check_kkt(prob, sol)
        assert not rep.passed


class TestRandomSuite:
    def test_kkt_and_determinism(self):
        rng = np.random.default_rng(2024)
        solved = 0
        for _ in range(300):
            prob = _random_problem(rng)
            a = solve_qp(prob)
            b = solve_qp(prob)
            assert a.status == b.status
            if a.status == "optimal":
                solved += 1
                assert np.array_equal(a.x, b.x)
                assert a.objective == b.objective
                assert check_kkt(prob, a).max_residual <= 1e-8
        assert solved > 100

    def test_against_grid_search(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(60):
            prob = _random_problem(rng, n=int(rng.integers(1, 4)))
            sol = solve_qp(prob)
            if sol.status != "optimal":
                continue
            axes = [np.linspace(lo, hi, 41) for lo, hi in zip(prob.lb, prob.ub)]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(prob.c))
            feas = np.ones(len(grid), bool)
            if prob.A_eq.size:
                feas &= np.all(np.abs(grid @ prob.A_eq.T - prob.b_eq) <= 0.15, axis=1)
            if prob.A_in.size:
                feas &= np.all(grid @ prob.A_in.T <= prob.b_in + 1e-9, axis=1)
            if not feas.any():
                continue
            vals = grid @ prob.c + 0.5 * (grid * grid) @ prob.d
            best = vals[feas].max()
            # coarse grid with slack on equality rows only lower-bounds loosely
            assert sol.objective >= best - 0.5
            checked += 1
        assert checked > 10


class TestBounds:
    def test_pinned_columns_price_their_side(self):
        # x0, x1 pinned; x2 is set by the equality row
        prob = _prob([3.0, -2.0, 1.0], [0.0, 0.0, -1.0],
                     A_eq=np.array([[1.0, 1.0, 1.0]]), b_eq=np.array([0.5]),
                     lb=np.array([1.0, -1.0, -5.0]), ub=np.array([1.0, -1.0, 5.0]))
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, -1.0, 0.5], abs=1e-12)
        mult = multipliers(prob, sol)
        assert mult.nu_upper[0] == pytest.approx(2.5, abs=1e-10)
        assert mult.nu_lower[0] == 0.0
        assert mult.nu_lower[1] == pytest.approx(2.5, abs=1e-10)
        assert mult.nu_upper[1] == 0.0
        assert check_kkt(prob, sol).max_residual <= 1e-8

    def test_random_pinned_columns(self):
        rng = np.random.default_rng(31)
        solved = 0
        for _ in range(200):
            prob = _random_problem(rng, n=int(rng.integers(2, 7)))
            pin = rng.random(prob.n) < 0.4
            prob.lb[pin] = prob.ub[pin] = rng.uniform(-1, 1, size=int(pin.sum()))
            sol = solve_qp(prob)
            if sol.status != "optimal":
                continue
            solved += 1
            assert np.array_equal(sol.x[pin], prob.lb[pin])
            # one side only, and the side the reduced gradient's sign says
            mult = multipliers(prob, sol)
            assert np.all(np.minimum(mult.nu_lower, mult.nu_upper)[pin] == 0.0)
            assert check_kkt(prob, sol).max_residual <= 1e-8
        assert solved > 50

    def test_one_sided_bounds(self):
        prob = _prob([2.0], [-1.0], ub=np.array([1.0]))
        sol = solve_qp(prob)
        assert sol.x[0] == 1.0
        assert multipliers(prob, sol).nu_upper[0] == pytest.approx(1.0, abs=1e-10)
        prob = _prob([1.0, -1.0], [0.0, 0.0],
                     lb=np.array([-np.inf, 0.0]), ub=np.array([3.0, np.inf]))
        sol = solve_qp(prob)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([3.0, 0.0], abs=1e-12)
        mult = multipliers(prob, sol)
        assert mult.nu_upper[0] == pytest.approx(1.0, abs=1e-10)
        assert mult.nu_lower[1] == pytest.approx(1.0, abs=1e-10)
        rng = np.random.default_rng(17)
        for _ in range(100):
            prob = _random_problem(rng)
            open_side = rng.random(prob.n) < 0.5
            prob.lb[open_side & (rng.random(prob.n) < 0.5)] = -np.inf
            prob.ub[open_side & ~np.isinf(prob.lb)] = np.inf
            prob.d[open_side] = -rng.uniform(0.5, 2.0, size=int(open_side.sum()))
            sol = solve_qp(prob)
            assert sol.status in ("optimal", "infeasible")
            if sol.status == "optimal":
                assert check_kkt(prob, sol).max_residual <= 1e-8

    def test_infeasible_start_matches_cold_solve(self):
        rng = np.random.default_rng(8)
        warm_phase1 = 0
        for _ in range(200):
            prob = _random_problem(rng)
            x0 = rng.uniform(-8, 8, size=prob.n)
            cold = solve_qp(prob)
            warm = solve_qp(prob, x0=x0)
            assert warm.status == cold.status
            if cold.status == "optimal":
                warm_phase1 += 1
                assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
                assert check_kkt(prob, warm).max_residual <= 1e-8
        assert warm_phase1 > 50

    def test_feasible_start_matches_cold_solve(self):
        # warm callers (B&B children, balanced clearing starts) hand phase 2
        # a feasible point that is no vertex; the optimum must not depend on it
        rng = np.random.default_rng(23)
        solved = 0
        while solved < 300:
            prob = _random_problem(rng)
            cold = solve_qp(prob)
            if cold.status != "optimal":
                continue
            nearby = replace(prob, c=prob.c + rng.uniform(-3, 3, size=prob.n),
                             d=prob.d * rng.uniform(0.0, 2.0, size=prob.n))
            x0 = solve_qp(nearby).x
            warm = solve_qp(prob, x0=x0)
            assert warm.status == cold.status
            assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
            assert check_kkt(prob, warm).max_residual <= 1e-8
            solved += 1

    def test_certificate_names_bound_columns(self):
        # x + y >= 3 with both columns capped at 1
        sol = solve_qp(_prob([0.0, 0.0], [0.0, 0.0],
                             A_in=np.array([[-1.0, -1.0]]), b_in=np.array([-3.0]),
                             lb=np.zeros(2), ub=np.ones(2)))
        assert sol.status == "infeasible"
        assert sol.certificate == {"eq": [], "in": [0], "upper": [0, 1], "lower": []}
        # y >= x with x >= 2 and y <= 1, plus an untouched third column
        sol = solve_qp(_prob([0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                             A_in=np.array([[1.0, -1.0, 0.0]]), b_in=np.array([0.0]),
                             lb=np.array([2.0, 0.0, -1.0]), ub=np.array([3.0, 1.0, 1.0])))
        assert sol.status == "infeasible"
        assert sol.certificate == {"eq": [], "in": [0], "upper": [1], "lower": [0]}


class TestLinprogCrossCheck:
    def test_random_lps_agree_with_highs(self):
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(4242)
        verdicts = {"optimal": 0, "infeasible": 0, "unbounded": 0}
        for _ in range(300):
            n = int(rng.integers(2, 8))
            lb = rng.uniform(-4, 0, size=n)
            ub = lb + rng.uniform(0.5, 4, size=n)
            kind = rng.integers(0, 5, size=n)  # box, pinned, free, >= lb, <= ub
            ub[kind == 1] = lb[kind == 1]
            lb[kind == 2], ub[kind == 2] = -np.inf, np.inf
            ub[kind == 3] = np.inf
            lb[kind == 4] = -np.inf
            m_eq = int(rng.integers(0, 3))
            m_in = int(rng.integers(0, 5))
            prob = _prob(rng.uniform(-5, 5, size=n), np.zeros(n),
                         A_eq=rng.uniform(-2, 2, size=(m_eq, n)),
                         b_eq=rng.uniform(-3, 3, size=m_eq),
                         A_in=rng.uniform(-2, 2, size=(m_in, n)),
                         b_in=rng.uniform(-2, 5, size=m_in), lb=lb, ub=ub)
            sol = solve_qp(prob)
            rows = dict(
                A_ub=prob.A_in if m_in else None, b_ub=prob.b_in if m_in else None,
                A_eq=prob.A_eq if m_eq else None, b_eq=prob.b_eq if m_eq else None,
                bounds=[(None if np.isinf(lo) else lo, None if np.isinf(hi) else hi)
                        for lo, hi in zip(lb, ub)],
                method="highs",
            )
            # a zero objective separates infeasible from unbounded, which
            # HiGHS's presolve may report together
            feasible = optimize.linprog(np.zeros(n), **rows).status == 0
            assert (sol.status != "infeasible") == feasible
            ref = optimize.linprog(-prob.c, **rows)
            if sol.status == "optimal":
                assert ref.status == 0
                assert sol.objective == pytest.approx(-ref.fun, abs=1e-7)
            elif sol.status == "unbounded":
                assert ref.status != 0
                ray = sol.ray
                assert prob.c @ ray > 1e-9
                assert np.all(np.abs(prob.A_eq @ ray) <= 1e-9)
                assert np.all(prob.A_in @ ray <= 1e-9)
                assert np.all(ray[np.isfinite(ub)] <= 1e-9)
                assert np.all(ray[np.isfinite(lb)] >= -1e-9)
            verdicts[sol.status] += 1
        assert min(verdicts.values()) > 10


class TestRankDeficientWorkingSets:
    """The multipliers come from a truncated pseudo-inverse of the working
    matrix, which must cope with dependent working rows."""

    @staticmethod
    def _check(prob, x0=None):
        a = solve_qp(prob, x0=x0)
        b = solve_qp(prob, x0=x0)
        assert a.status == "optimal"
        assert check_kkt(prob, a).max_residual <= 1e-8
        assert np.array_equal(a.x, b.x)
        ma, mb = multipliers(prob, a), multipliers(prob, b)
        for name in ("y_eq", "mu_in", "nu_lower", "nu_upper"):
            assert np.array_equal(getattr(ma, name), getattr(mb, name))
        return a, ma

    def test_duplicated_equality_row(self):
        # max -(x^2 + y^2)/2  s.t.  x + y = 2, stated twice
        prob = _prob([0.0, 0.0], [-1.0, -1.0],
                     A_eq=np.array([[1.0, 1.0], [1.0, 1.0]]), b_eq=np.array([2.0, 2.0]))
        sol, mult = self._check(prob)
        assert sol.x == pytest.approx([1.0, 1.0], abs=1e-10)
        # the minimum-norm split of the one multiplier
        assert mult.y_eq == pytest.approx([-0.5, -0.5], abs=1e-10)

    def test_duplicated_inequality_row_tight_at_optimum(self):
        # max 3x + 2y - x^2 - y^2  s.t.  x + y <= 1, stated twice; the start
        # at the optimum puts both copies in the working set
        prob = _prob([3.0, 2.0], [-2.0, -2.0],
                     A_in=np.array([[1.0, 1.0], [1.0, 1.0]]), b_in=np.array([1.0, 1.0]),
                     lb=np.full(2, -5.0), ub=np.full(2, 5.0))
        cold = self._check(prob)
        warm = self._check(prob, x0=np.array([0.75, 0.25]))
        for sol, mult in (cold, warm):
            assert sol.x == pytest.approx([0.75, 0.25], abs=1e-10)
            assert mult.mu_in.sum() == pytest.approx(1.5, abs=1e-10)
        assert warm[1].mu_in == pytest.approx([0.75, 0.75], abs=1e-10)

    def test_curved_and_flat_free_columns(self, monkeypatch):
        # x is curved, y is flat.  From (1, 0), x starts at its upper bound
        # and only the flat y is free, so the first iteration skips the
        # eigendecomposition; once x is released, it runs
        prob = _prob([0.5, 1.0], [-1.0, 0.0],
                     lb=np.array([0.0, -1.0]), ub=np.array([1.0, 2.0]))
        x0 = np.array([1.0, 0.0])
        sol, mult = self._check(prob, x0=x0)
        assert sol.x == pytest.approx([0.5, 2.0], abs=1e-12)
        assert mult.nu_upper[1] == pytest.approx(1.0, abs=1e-12)
        calls = []
        eigh_lo, eigh = qp.eigh_lo, np.linalg.eigh
        monkeypatch.setattr(qp, "eigh_lo", lambda H, signature: calls.append(H.shape)
                            or eigh_lo(H, signature=signature))
        # y rises to its bound with no decomposition; x is released (no free
        # column); x steps to 0.5 with its 1 x 1 reduced Hessian decomposed
        # in closed form, as eigh would, and the optimum check after that
        # unblocked step reuses the factor.  A fresh copy of the problem
        # starts with an empty factor cache, which the solves above filled
        fresh = replace(prob)
        assert solve_qp(fresh, x0=x0).iterations == 3
        curv = [factor.curv for factor in fresh.factors.values()]
        assert curv[:2] == [None, None] and len(curv) == 3
        w, V, Vc, wc = curv[2]
        assert (w.tolist(), V.tolist(), Vc.tolist(), wc.tolist()) == (
            [-1.0], [[1.0]], [[1.0]], [-1.0]
        )
        assert calls == []
        for h in (-1.0, -0.3, -7e-9, 0.0):
            w, V = eigh(np.array([[h]]))
            assert (w.tolist(), V.tolist()) == ([h], [[1.0]])
        # phase 1 and pure LPs never decompose
        lp = _prob([1.0, -1.0], [0.0, 0.0], A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]),
                   lb=np.zeros(2), ub=np.ones(2))
        sol = solve_qp(lp)
        assert sol.status == "optimal" and sol.iterations > 0
        assert calls == [] and all(factor.curv is None for factor in lp.factors.values())


class TestLapack:
    """``_factor`` and the reduced Hessian's decomposition call LAPACK's
    gufuncs directly: the bits of numpy's public ``svd`` and ``eigh``, and
    a typed failure where those raise LinAlgError."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(7)
        random = [rng.standard_normal((m, n)) for m in range(1, 5) for n in range(1, 7)]
        a, b = rng.standard_normal((2, 5))
        # dependent rows: a repeated row and a combination of two
        deficient = [np.array([a, a]), np.array([a, b, 2.0 * a - 3.0 * b]), np.zeros((2, 3))]
        no_rows = [np.zeros((0, n)) for n in range(4)]
        one_column = [rng.standard_normal((m, 1)) for m in range(1, 4)]
        no_columns = [np.zeros((m, 0)) for m in range(1, 3)]
        return random + deficient + no_rows + one_column + no_columns

    def test_factor_has_the_bits_of_the_public_svd(self):
        for K in self._matrices():
            for got, want in zip(qp._factor(K), reference_factor(K)):
                assert same_bits(got, want) and got.strides == want.strides, K.shape

    def test_reduced_hessian_has_the_bits_of_the_public_eigh(self, monkeypatch):
        calls = []
        eigh_lo = qp.eigh_lo
        monkeypatch.setattr(qp, "eigh_lo", lambda H, signature: calls.append(H)
                            or eigh_lo(H, signature=signature))
        rng = np.random.default_rng(8)
        for _ in range(20):
            solve_qp(_random_problem(rng, n=5))
        assert len(calls) > 10
        for H in calls:
            for got, want in zip(eigh_lo(H, signature="d->dd"), np.linalg.eigh(H)):
                assert same_bits(got, want)

    def test_svd_non_convergence_is_a_solver_failure(self):
        # LAPACK fails on NaN entries; np.linalg.svd would raise LinAlgError
        with pytest.warns(RuntimeWarning, match="invalid value"):
            with pytest.raises(SolverFailure, match="SVD"):
                qp._factor(np.full((2, 3), np.nan))

    def test_eigh_non_convergence_is_a_solver_failure(self):
        # no working rows and two free columns whose curvature is NaN: the
        # 2 x 2 reduced Hessian is all NaN.  LAPACK returns NaN eigenvalues
        # for it without reporting a failure (as np.linalg.eigh does), and
        # the output check makes that a failure too
        nan = np.full(2, np.nan)
        solver = qp._ActiveSet(np.zeros(2), nan, np.zeros((0, 2)), np.zeros(0),
                               np.zeros((0, 2)), np.zeros(0), np.full(2, -1.0), np.ones(2))
        with pytest.raises(SolverFailure, match="eigendecomposition"):
            solver._factorize([], np.full(2, qp.FREE))
        assert not solver.factors


class TestFactor:
    """What any factorization of a working set must answer, whatever its
    route: a null-space basis and the rank, least-squares multipliers, a
    least-norm step, a dependence test and the reduced Hessian's curved
    directions, on random, rank-deficient, 0-row and 0-free-column
    working matrices."""

    @staticmethod
    def _cases():
        """(K, free, d) triples; d is zero on some columns."""
        rng = np.random.default_rng(12)

        def d(n):
            return np.where(rng.random(n) < 0.7, -rng.random(n) - 0.1, 0.0)

        a, b = rng.standard_normal((2, 5))
        cases = []
        for m in range(1, 5):
            for n in range(1, 8):
                K = rng.standard_normal((m, n))
                cases.append((K, np.arange(n), d(n)))
                # the same rows with a random half of the columns free
                cases.append((K, np.sort(rng.permutation(n)[:(n + 1) // 2]), d(n)))
        for K in (np.array([a, a]), np.array([a, b, 2.0 * a - 3.0 * b]), np.zeros((2, 5))):
            cases.append((K, np.arange(5), d(5)))
            cases.append((K, np.array([0, 2, 3]), d(5)))
        cases += [(np.zeros((0, n)), np.arange(n), d(n)) for n in range(1, 5)]
        cases += [(rng.standard_normal((m, 3)), np.zeros(0, dtype=int), d(3)) for m in (0, 2)]
        # no curvature at all: every free direction is flat
        cases.append((rng.standard_normal((1, 4)), np.arange(4), np.zeros(4)))
        return cases

    def test_answers(self):
        rng = np.random.default_rng(13)
        deficient = full = 0
        for K, free, d in self._cases():
            factor = qp._Factor(K, free, d)
            m, n = K.shape
            Kf, Z = K[:, free], factor.Z
            rank = int(np.linalg.matrix_rank(Kf))
            assert np.array_equal(factor.free, free)
            assert factor.rank == rank and rank + Z.shape[1] == len(free)
            assert np.abs(Z.T @ Z - np.eye(Z.shape[1])).max(initial=0.0) <= 1e-12
            assert np.abs(Kf @ Z).max(initial=0.0) <= 1e-12
            if rank == m:
                full += 1
                for g in (rng.standard_normal(n), rng.standard_normal((n, 2))):
                    lam, ref = factor.lstsq(g), np.linalg.lstsq(Kf.T, g[free], rcond=None)[0]
                    assert lam.shape == ref.shape
                    assert np.abs(lam - ref).max(initial=0.0) <= 1e-10
            else:
                deficient += 1
            # a step that meets row changes in the range of K's free part,
            # with no part in the null space: the least-norm one
            r = Kf @ rng.standard_normal(len(free))
            step = factor.least_norm(r)
            assert step.shape == (len(free),)
            assert np.abs(Kf @ step - r).max(initial=0.0) <= 1e-10
            assert np.abs(Z.T @ step).max(initial=0.0) <= 1e-10
            assert factor.dependent(K.T @ rng.standard_normal(m))
            # a generic normal depends on the rows only when no free
            # direction is left
            assert factor.dependent(rng.standard_normal(n)) == (Z.shape[1] == 0)
            df = d[free]
            assert (factor.curv is None) == (Z.shape[1] == 0 or not df.any())
            if factor.curv is not None:
                # the curved directions, in the columns' space, are
                # orthonormal and diagonalize D with the curved eigenvalues,
                # one per negative eigenvalue of the reduced Hessian
                _, _, Vc, wc = factor.curv
                C = Z @ Vc
                assert np.abs(C.T @ C - np.eye(len(wc))).max(initial=0.0) <= 1e-12
                assert np.abs(C.T @ (df[:, None] * C) - np.diag(wc)).max(initial=0.0) <= 1e-12
                H = Z.T @ (df[:, None] * Z)
                assert len(wc) == np.count_nonzero(np.linalg.eigvalsh(H) < -1e-9)
        assert full > 30 and deficient > 5


def _boxed_problems(seed, count=600):
    """Random problems in random boxes, some shifted away from the origin
    so that rows miss and some open above."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(count):
        prob = _random_problem(rng)
        prob.lb = rng.uniform(-4, 4, size=prob.n)
        prob.ub = prob.lb + rng.uniform(0.0, 3.0, size=prob.n)
        open_side = rng.random(prob.n) < 0.2
        prob.ub[open_side] = np.inf
        prob.b_in = rng.uniform(-5, 5, size=len(prob.b_in))
        problems.append(prob)
    return problems


def _spy_proofs(monkeypatch):
    """(proofs, solve): ``solve`` is ``solve_qp``, and each of its
    infeasible verdicts appends its proof to ``proofs``: "rows" (the row
    test) or "phase 1" (the artificial problem)."""
    proofs, phased = [], []
    solve, phase1 = qp.solve_qp, qp._phase1

    def phase1_spy(*args, **kwargs):
        phased.append(1)
        return phase1(*args, **kwargs)

    def solve_spy(prob, *args, **kwargs):
        phased.clear()
        sol = solve(prob, *args, **kwargs)
        if sol.status == "infeasible":
            proofs.append("phase 1" if phased else "rows")
        return sol

    monkeypatch.setattr(qp, "_phase1", phase1_spy)
    return proofs, solve_spy


class TestRowBounds:
    def test_flags_only_infeasible_problems(self, monkeypatch):
        # solve_qp refutes the problems the row test flags with no
        # iteration and no phase 1; phase 1 alone, from the clipped origin,
        # finds every verdict of solve_qp, and the row test is a screen
        # that leaves some of them to it
        problems = _boxed_problems(77)
        flagged = [qp._row_test(prob) is not None for prob in problems]
        calls = []
        phase1 = qp._phase1
        monkeypatch.setattr(qp, "_phase1", lambda *args: calls.append(1) or phase1(*args))
        unflagged_infeasible = 0
        statuses = []
        for prob, flag in zip(problems, flagged):
            calls.clear()
            sol = solve_qp(prob)
            statuses.append(sol.status)
            if flag:
                assert sol.status == "infeasible" and sol.iterations == 0 and calls == []
            elif sol.status == "infeasible":
                unflagged_infeasible += 1
        assert sum(flagged) > 100
        assert unflagged_infeasible > 0
        for prob, status in zip(problems, statuses):
            x, _, _ = phase1(prob, np.clip(np.zeros(prob.n), prob.lb, prob.ub))
            assert (x is None) == (status == "infeasible")

    def test_bound_copies_share_rows_and_agree(self):
        # a with_bounds copy shares the rows stacked once for its problem
        # and decides exactly as a problem built afresh with its box
        rng = np.random.default_rng(78)
        for _ in range(200):
            prob = _random_problem(rng)
            lb = rng.uniform(-4, 4, size=prob.n)
            ub = lb + rng.uniform(0.0, 3.0, size=prob.n)
            node = prob.with_bounds(lb, ub)
            fresh = replace(prob, lb=lb, ub=ub)
            assert node.A_eq is prob.A_eq and node.A_in is prob.A_in
            assert node._activity_rows is prob._activity_rows
            assert qp._row_test(node) == qp._row_test(fresh)
            assert qp._row_test(prob) == qp._row_test(replace(prob))

    def test_every_certificate_is_infeasible_alone(self, monkeypatch):
        # each verdict's certificate names rows and bounds that are
        # infeasible on their own, whichever step proved it: the row test
        # or phase 1
        proofs, solve = _spy_proofs(monkeypatch)
        refuted = [
            (prob, sol) for prob in _boxed_problems(77)
            if (sol := solve(prob)).status == "infeasible"
        ]
        # 334 and 67 verdicts
        assert all(proofs.count(proof) > 10 for proof in ("rows", "phase 1"))
        for prob, sol in refuted:
            cert = sol.certificate
            lb, ub = np.full(prob.n, -np.inf), np.full(prob.n, np.inf)
            lb[cert["lower"]] = prob.lb[cert["lower"]]
            ub[cert["upper"]] = prob.ub[cert["upper"]]
            core = replace(prob, A_eq=prob.A_eq[cert["eq"]], b_eq=prob.b_eq[cert["eq"]],
                           A_in=prob.A_in[cert["in"]], b_in=prob.b_in[cert["in"]], lb=lb, ub=ub)
            assert solve_qp(core).status == "infeasible"

    def test_two_row_chain_takes_one_artificial(self, monkeypatch):
        # x + y = 1.6 pushes y up to 0.6 (x <= 1), y + z <= 0.5 pushes it
        # down to 0.5 (z >= 0): each row alone fits the box, so the row test
        # passes, but together they do not; the start 0 breaks the equality
        # row
        prob = _prob([0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                     A_eq=np.array([[1.0, 1.0, 0.0]]), b_eq=np.array([1.6]),
                     A_in=np.array([[0.0, 1.0, 1.0]]), b_in=np.array([0.5]),
                     lb=np.zeros(3), ub=np.ones(3))
        assert qp._row_test(prob) is None
        built = []
        active_set = qp._ActiveSet

        class Spy(active_set):
            def __init__(self, c, *args, **kwargs):
                built.append(len(c))
                super().__init__(c, *args, **kwargs)

        monkeypatch.setattr(qp, "_ActiveSet", Spy)
        sol = solve_qp(prob)
        # the problem's own solver, then phase 1 with one artificial, on
        # the equality row
        assert sol.status == "infeasible" and built == [3, 3 + 1]
        # y's lower bound rests on the equality row and x's upper bound, its
        # upper bound on the inequality row and z's lower bound
        assert sol.certificate == {"eq": [0], "in": [0], "upper": [0], "lower": [2]}

    def test_margin_is_phase_one_threshold(self):
        # x <= 1 against x >= 1 + margin: flagged only beyond INFEAS_TOL,
        # and below it phase 1 accepts the point
        for margin, flagged in ((0.5 * tolerances.INFEAS_TOL, False), (2 * tolerances.INFEAS_TOL, True)):
            prob = _prob([0.0], [0.0], A_in=np.array([[-1.0]]),
                         b_in=np.array([-1.0 - margin]),
                         lb=np.array([0.0]), ub=np.array([1.0]))
            assert (qp._row_test(prob) is not None) is flagged
            assert solve_qp(prob).status == ("infeasible" if flagged else "optimal")


class TestFactorReuse:
    def test_unblocked_step_reuses_the_factor(self, monkeypatch):
        # max 3x - x^2 inside [-5, 5]: one unblocked Newton step to 1.5,
        # then the optimum check on the same working set
        calls = []
        factor = qp._factor
        monkeypatch.setattr(qp, "_factor", lambda K: calls.append(K.shape) or factor(K))
        sol = solve_qp(_prob([3.0], [-2.0], lb=np.array([-5.0]), ub=np.array([5.0])))
        assert sol.x[0] == pytest.approx(1.5, abs=1e-12)
        assert sol.iterations == 1
        assert calls == [(0, 1)]


class TestFactorCache:
    """Solves of a problem and of its ``with_bounds`` copies share one cache
    of factorizations, keyed by working rows and free columns."""

    @staticmethod
    def _siblings():
        # max -(x^2 + y^2)/2 + x + y with x + y = 2: the parent sits at
        # (1, 1) with both columns free; pinning x at 0.5 or at 1.5 moves y
        # along the row in one segment, with the same working set
        prob = _prob([1.0, 1.0], [-1.0, -1.0], A_eq=np.array([[1.0, 1.0]]),
                     b_eq=np.array([2.0]), lb=np.full(2, -5.0), ub=np.full(2, 5.0))
        return prob, _pinned(prob, 0, 0.5), _pinned(prob, 0, 1.5)

    def test_second_child_reuses_the_first_childs_factors(self, monkeypatch):
        prob, first, second = self._siblings()
        parent = solve_qp(prob)
        assert first.factors is second.factors is prob.factors
        calls = []
        factor = qp._factor
        monkeypatch.setattr(qp, "_factor", lambda K: calls.append(K.shape) or factor(K))
        one = solve_qp(first, start=parent)
        assert calls == [(1, 1)]
        calls.clear()
        fallbacks = _count_fallbacks(monkeypatch)
        two = solve_qp(second, start=parent)
        assert calls == [] and fallbacks == []
        assert one.x == pytest.approx([0.5, 1.5], abs=1e-12)
        assert two.x == pytest.approx([1.5, 0.5], abs=1e-12)
        # a problem built afresh factorizes again and ends at the same point
        fresh = solve_qp(replace(second), start=parent)
        assert calls == [(1, 1)]
        assert np.array_equal(fresh.x, two.x) and fresh.iterations == two.iterations

    def test_cached_arrays_are_read_only(self):
        prob, _, _ = self._siblings()
        solve_qp(prob)
        entries = list(prob.factors.values())
        assert entries
        for factor in entries:
            # every array the factor holds, whatever its route names them
            fields = [getattr(factor, name) for name in qp._Factor.__slots__]
            arrays = [a for a in fields if isinstance(a, np.ndarray)] + list(factor.curv or ())
            assert len(arrays) > 2
            for a in arrays:
                with pytest.raises(ValueError):
                    a[...] = 0.0

    def test_cache_keeps_its_bound(self, monkeypatch):
        # with room for two, the most recent entry is the optimum's
        monkeypatch.setattr(qp, "FACTOR_CACHE_SIZE", 2)
        rng = np.random.default_rng(161)
        sizes = []
        for _ in range(100):
            prob = _random_problem(rng)
            sol = solve_qp(prob)
            sizes.append(len(prob.factors))
            if sol.status == "optimal":
                rows, state = sol.working.rows, sol.working.state
                assert list(prob.factors)[-1] == (rows, (state == qp.FREE).tobytes())
        assert max(sizes) == 2


class TestDeadline:
    def test_passed_deadline_raises(self, monkeypatch):
        prob = _prob([3.0], [-2.0], lb=np.array([-5.0]), ub=np.array([5.0]))
        monkeypatch.setattr(qp, "time", SimpleNamespace(monotonic=lambda: 10.0))
        with pytest.raises(TimeLimit):
            solve_qp(prob, deadline=1.0)
        assert solve_qp(prob, deadline=20.0).status == "optimal"

    def test_phase_one_checks_the_deadline(self, monkeypatch):
        # the start 0 misses x1 + x2 = 1, so phase 1 runs first
        prob = _prob([0.0, 0.0], [0.0, 0.0], A_eq=np.array([[1.0, 1.0]]),
                     b_eq=np.array([1.0]), lb=np.zeros(2), ub=np.ones(2))
        raised = []
        phase1 = qp._phase1

        def spy(prob, x0, deadline=None):
            try:
                return phase1(prob, x0, deadline)
            except TimeLimit:
                raised.append("phase 1")
                raise

        monkeypatch.setattr(qp, "_phase1", spy)
        monkeypatch.setattr(qp, "time", SimpleNamespace(monotonic=lambda: 10.0))
        with pytest.raises(TimeLimit):
            solve_qp(prob, deadline=1.0)
        assert raised == ["phase 1"]


def _pinned(prob, j, value):
    lb, ub = prob.lb.copy(), prob.ub.copy()
    lb[j] = ub[j] = value
    return prob.with_bounds(lb, ub)


def _count_fallbacks(monkeypatch):
    """One entry per parametric start that falls back to phase 1."""
    fallbacks = []
    warm_start = qp._warm_start

    def spy(*args):
        out = warm_start(*args)
        if out is None:
            fallbacks.append(None)
        return out

    monkeypatch.setattr(qp, "_warm_start", spy)
    return fallbacks


class TestWarmStarts:
    """A child pins one column of a solved parent; it starts from the
    parent's optimum and working set and must end where a cold solve does."""

    def test_children_match_cold_solves(self, monkeypatch):
        # criterion 9's random family; each child pins a free column of its
        # parent at the column's floor or ceiling
        from test_acceptance import _random_qp

        fallbacks = _count_fallbacks(monkeypatch)
        starts = []
        warm_start = qp._warm_start
        monkeypatch.setattr(qp, "_warm_start", lambda *args: starts.append(1) or warm_start(*args))
        rng = np.random.default_rng(160)
        feasible = fell_back = refuted = 0
        for _ in range(600):
            prob = _random_qp(rng, int(rng.integers(1, 21)))
            parent = solve_qp(prob)
            free = [] if parent.status != "optimal" else np.flatnonzero(parent.working.state == qp.FREE)
            if not len(free):
                continue
            j = int(rng.choice(free))
            child = _pinned(prob, j, (prob.lb if rng.random() < 0.5 else prob.ub)[j])
            cold = solve_qp(child)
            fallbacks.clear()
            starts.clear()
            warm = solve_qp(child, x0=parent.x, start=parent)
            again = solve_qp(child, x0=parent.x, start=parent)
            assert warm.status == cold.status == again.status
            assert again.iterations == warm.iterations
            if qp._row_test(child) is not None:
                # decided ahead of the parametric pass
                assert warm.status == "infeasible" and starts == []
                refuted += 1
                continue
            if cold.status != "optimal":
                assert len(fallbacks) == 2  # past the row test, phase 1 decides
                continue
            feasible += 1
            fell_back += bool(fallbacks)
            assert np.array_equal(warm.x, again.x)
            assert abs(warm.objective - cold.objective) <= 1e-9 * max(1.0, abs(cold.objective))
            assert check_kkt(child, warm).max_residual <= 1e-8
        assert feasible > 300 and refuted > 0
        assert fell_back <= 0.1 * feasible

    def test_dependent_working_rows_fall_back(self, monkeypatch):
        # x + y <= 1 stated twice and tight at the parent's optimum: once x
        # is pinned, the two rows on y alone are dependent
        prob = _prob([3.0, 2.0], [-2.0, -2.0],
                     A_in=np.array([[1.0, 1.0], [1.0, 1.0]]), b_in=np.array([1.0, 1.0]),
                     lb=np.full(2, -5.0), ub=np.full(2, 5.0))
        parent = solve_qp(prob, x0=np.array([0.75, 0.25]))
        assert parent.working.rows == (0, 1)
        fallbacks = _count_fallbacks(monkeypatch)
        child = _pinned(prob, 0, -5.0)
        warm = solve_qp(child, x0=parent.x, start=parent)
        cold = solve_qp(child)
        assert fallbacks == [None]
        assert warm.status == cold.status == "optimal"
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert check_kkt(child, warm).max_residual <= 1e-8

    def test_dependent_breakpoint_exchanges_a_bound(self, monkeypatch):
        # max -(x^2)/2 - (y^2)/2 + 3z, x + y + z = 2, z <= 1: the flat z sits
        # at its ceiling.  Pinning x at 2 drives y down to its floor 0, where
        # the row on the free columns left would be dependent; z's bound
        # leaves the working set in its place and the pass goes on
        prob = _prob([0.0, 0.0, 3.0], [-1.0, -1.0, 0.0],
                     A_eq=np.array([[1.0, 1.0, 1.0]]), b_eq=np.array([2.0]),
                     lb=np.array([-3.0, 0.0, -3.0]), ub=np.array([3.0, 3.0, 1.0]))
        parent = solve_qp(prob)
        assert parent.x == pytest.approx([0.5, 0.5, 1.0], abs=1e-12)
        fallbacks = _count_fallbacks(monkeypatch)
        child = _pinned(prob, 0, 2.0)
        warm = solve_qp(child, x0=parent.x, start=parent)
        assert fallbacks == []
        assert warm.x == pytest.approx([2.0, 0.0, 0.0], abs=1e-12)
        assert warm.objective == pytest.approx(solve_qp(child).objective, abs=1e-12)
        assert check_kkt(child, warm).max_residual <= 1e-8

    def test_flat_free_columns_keep_their_split(self, monkeypatch):
        # y and z are flat and free, and only their sum is fixed by the row:
        # the pass moves them along the row's least-norm direction, never
        # along the flat one, so their difference stays the parent's
        prob = _prob([2.0, 0.0, 0.0], [-1.0, 0.0, 0.0],
                     A_eq=np.array([[1.0, 1.0, 1.0]]), b_eq=np.array([3.0]),
                     lb=np.zeros(3), ub=np.full(3, 3.0))
        parent = solve_qp(prob, x0=np.array([1.0, 1.5, 0.5]))
        assert parent.x[0] == pytest.approx(2.0, abs=1e-12)
        assert list(parent.working.state) == [qp.FREE] * 3
        fallbacks = _count_fallbacks(monkeypatch)
        child = _pinned(prob, 0, 0.0)
        warm = solve_qp(child, x0=parent.x, start=parent)
        assert fallbacks == []
        assert warm.x[1] + warm.x[2] == pytest.approx(3.0, abs=1e-12)
        assert warm.x[1] - warm.x[2] == pytest.approx(parent.x[1] - parent.x[2], abs=1e-12)
        assert warm.objective == pytest.approx(solve_qp(child).objective, abs=1e-12)
        assert check_kkt(child, warm).max_residual <= 1e-8

    def test_infeasible_child_falls_back(self, monkeypatch):
        # the two-row chain of TestRowBounds with x free up to 2: the parent
        # sits at (1.1, 0.5, 0).  Pinning x at 1 leaves each row room in
        # the box, so the row test passes, but y must reach 0.6 against the
        # cap 0.5: the parametric pass falls back, and phase 1 decides at
        # the parent's point, where its artificial problem is already optimal
        prob = _prob([0.0, 0.0, 0.0], [-1.0, -1.0, -1.0],
                     A_eq=np.array([[1.0, 1.0, 0.0]]), b_eq=np.array([1.6]),
                     A_in=np.array([[0.0, 1.0, 1.0]]), b_in=np.array([0.5]),
                     lb=np.zeros(3), ub=np.array([2.0, 1.0, 1.0]))
        parent = solve_qp(prob)
        assert parent.x == pytest.approx([1.1, 0.5, 0.0], abs=1e-12)
        fallbacks = _count_fallbacks(monkeypatch)
        child = _pinned(prob, 0, 1.0)
        assert qp._row_test(child) is None
        warm = solve_qp(child, x0=parent.x, start=parent)
        assert fallbacks == [None]
        cold = solve_qp(child)
        assert warm.status == cold.status == "infeasible"
        assert warm.iterations == 0
        assert warm.certificate == cold.certificate == {
            "eq": [0], "in": [0], "upper": [0], "lower": [2]
        }

    def test_violated_new_row_falls_back(self, monkeypatch):
        # a row added since the parent was solved (a cut) that the parent's
        # point violates sends the child to phase 1
        prob = _prob([1.0, 1.0], [-1.0, -1.0], lb=np.zeros(2), ub=np.full(2, 2.0))
        parent = solve_qp(prob)
        fallbacks = _count_fallbacks(monkeypatch)
        cut = replace(prob, A_in=np.array([[1.0, 1.0]]), b_in=np.array([1.0]))
        warm = solve_qp(cut, x0=parent.x, start=parent)
        assert fallbacks == [None]
        assert warm.x == pytest.approx([0.5, 0.5], abs=1e-12)


def _spy_releases(monkeypatch, prob):
    """Events of solving prob, an LP (d = 0): ("ratio", alpha) per ratio
    test and ("release", k, duals) per released constraint, with the signed
    multipliers (``_signed_duals``' order) it was chosen from."""
    events = []
    solver = qp._ActiveSet(
        prob.c, prob.d, prob.A_eq, prob.b_eq, prob.A_in, prob.b_in, prob.lb, prob.ub
    )
    ratio, release = qp._ActiveSet._ratio, qp._ActiveSet._release

    def ratio_spy(self, *args):
        out = ratio(self, *args)
        events.append(("ratio", out[0]))
        return out

    def release_spy(k, work, state):
        # with d = 0 the gradient is c wherever the iterate is
        K, factor = solver._factorize(work, state)
        duals = solver._signed_duals(state, K, factor, prob.c[:, None])[:, 0]
        events.append(("release", k, duals))
        release(k, work, state)

    monkeypatch.setattr(qp._ActiveSet, "_ratio", ratio_spy)
    monkeypatch.setattr(qp._ActiveSet, "_release", staticmethod(release_spy))
    return events


def _beale():
    """Beale's (1955) LP, on which the simplex method with the most
    negative reduced cost cycles: max 3/4 x1 - 20 x2 + 1/2 x3 - 6 x4."""
    return _prob([0.75, -20.0, 0.5, -6.0], np.zeros(4),
                 A_in=np.array([[0.25, -8.0, -1.0, 9.0],
                                [0.5, -12.0, -0.5, 3.0],
                                [0.0, 0.0, 1.0, 0.0]]),
                 b_in=np.array([0.0, 0.0, 1.0]), lb=np.zeros(4), ub=np.full(4, np.inf))


class TestReleaseRule:
    """At a stationary point the most negative multiplier leaves (Dantzig),
    lowest index on ties; right after a zero-length step the first
    wrong-signed one leaves (Bland)."""

    def test_most_negative_bound_multiplier_leaves_first(self, monkeypatch):
        # both columns start at their lower bound with multipliers -1 and -3
        prob = _prob([1.0, 3.0], np.zeros(2), lb=np.zeros(2), ub=np.full(2, 10.0))
        events = _spy_releases(monkeypatch, prob)
        sol = solve_qp(prob)
        assert sol.x == pytest.approx([10.0, 10.0], abs=1e-12)
        releases = [e for e in events if e[0] == "release"]
        assert [k for _, k, _ in releases] == [1, 0]
        assert releases[0][2] == pytest.approx([-1.0, -3.0], abs=1e-12)

    def test_ties_release_the_lowest_index(self, monkeypatch):
        prob = _prob([2.0, 2.0], np.zeros(2), lb=np.zeros(2), ub=np.full(2, 10.0))
        events = _spy_releases(monkeypatch, prob)
        solve_qp(prob)
        assert [e[1] for e in events if e[0] == "release"] == [0, 1]

    @pytest.mark.parametrize("x0", [None, [0.0, 1.0, 0.0, 0.0]])
    def test_beale_lp_reaches_the_highs_optimum(self, x0):
        optimize = pytest.importorskip("scipy.optimize")
        prob = _beale()
        sol = solve_qp(prob, x0=None if x0 is None else np.array(x0))
        ref = optimize.linprog(-prob.c, A_ub=prob.A_in, b_ub=prob.b_in,
                               bounds=[(0, None)] * 4, method="highs")
        assert sol.status == "optimal" and ref.status == 0
        assert sol.objective == pytest.approx(-ref.fun, abs=1e-12)
        assert sol.x == pytest.approx(ref.x, abs=1e-12)

    def test_release_after_a_zero_length_step_is_the_first_wrong_one(self, monkeypatch):
        # from (0, 1, 0, 0), feasible, the path enters Beale's degenerate
        # vertex at the origin, where ratio tests return zero-length steps;
        # the most negative multiplier alone cycles there
        prob = _beale()
        events = _spy_releases(monkeypatch, prob)
        assert solve_qp(prob, x0=np.array([0.0, 1.0, 0.0, 0.0])).status == "optimal"
        after_zero = []
        alpha = None
        for event in events:
            if event[0] == "ratio":
                alpha = event[1]
                continue
            _, k, duals = event
            wrong = np.flatnonzero(duals < -tolerances.DUAL_TOL)
            if alpha == 0.0:
                assert k == wrong[0]
                after_zero.append(k != int(np.argmin(duals)))
            else:
                assert k == int(np.argmin(duals))
        # Bland's choice differs from Dantzig's at least once here
        assert any(after_zero)


def _bench_clears():
    """Exact and heuristic clears of paradox instance seeds 1000-1019 and
    day-book instance seeds 3000-3019: their master, FixFlow and pricing
    QPs."""
    from daclear.driver import clear_exact, clear_heuristic

    for family, first in (("paradox", 1000), ("day-book", 3000)):
        for seed in range(first, first + 20):
            instance = bench_instance(family, seed)
            clear_exact(instance)
            clear_heuristic(instance)


class TestKernelArithmetic:
    """The active-set kernel's factorizations and ratio tests give the bits
    that the earlier forms (``helpers.reference_factorize`` and
    ``helpers.reference_ratio``) give, call by call."""

    def test_clearing_qps(self, monkeypatch):
        counts = kernel_reference_spy(monkeypatch)
        _bench_clears()
        assert counts["factorize"] > 1500 and counts["ratio"] > 700 and counts["curved"] > 800

    def test_random_qps_of_criterion_9(self, monkeypatch):
        from test_acceptance import _random_qp

        counts = kernel_reference_spy(monkeypatch)
        rng = np.random.default_rng(99)
        for _ in range(1000):
            solve_qp(_random_qp(rng, int(rng.integers(1, 21))))
        assert counts["factorize"] > 10000 and counts["ratio"] > 8000 and counts["curved"] > 8000


def test_array_starts_that_hold_every_row_pass_the_row_test(monkeypatch):
    # FixFlow's and pricing's QPs start from arrays; when one, clipped into
    # the box, holds every row, solve_qp skips the row test, which could
    # not refute it.  Leaves that the pinned prices answer solve pricing's
    # QPs too (``with_qp_path``)
    from daclear import pricing
    from helpers import with_qp_path

    checked, solve = [], pricing.solve_qp

    def spy(prob, x0=None, **kwargs):
        first = qp._clipped(prob, x0)
        if qp.rows_hold(prob, first):
            assert qp._row_test(replace(prob)) is None
            checked.append(1)
        return solve(prob, x0=x0, **kwargs)

    monkeypatch.setattr(pricing, "solve_qp", spy)
    with_qp_path(monkeypatch)
    _bench_clears()
    assert len(checked) > 200


def test_options_are_keyword_only():
    # only the problem is positional, so a wrapper that reads x0, deadline
    # or start from its keyword arguments sees every call's options
    import inspect

    params = inspect.signature(solve_qp).parameters.values()
    assert [p.name for p in params if p.kind is p.POSITIONAL_OR_KEYWORD] == ["prob"]
    assert [p.name for p in params if p.kind is p.KEYWORD_ONLY] == ["x0", "deadline", "start"]
    with pytest.raises(TypeError):
        solve_qp(_prob([3.0], [-2.0]), np.zeros(1))
