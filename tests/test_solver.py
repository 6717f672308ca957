import itertools
import json
import re

import numpy as np
import pytest

import clockauction.estimation as estimation
import clockauction.solver as solver
from clockauction.core import Bundle, PriceVector, Product, ProductCatalog
from clockauction.engine import run_auction
from clockauction.errors import SolverError, ValidationError
from clockauction.ingest import (BidRow, BundleBase, BundleSpace, CopyLadder, RawBidLog,
                                 build_bundle_space, smooth_monotone)
from clockauction.pipeline import estimate_all, trace_to_bidlog
from clockauction.solver import (EQ, GE, LE, PHASE1, PIVOT_TOL, LinearProgram, Solution,
                                 check_feasible, phase1_memo, solve_lp, solve_mip,
                                 write_lp_format)
from clockauction.synthetic import random_setup


def lp_min(objective, variables, constraints):
    lp = LinearProgram()
    for name, lb, ub in variables:
        lp.add_variable(name, lb=lb, ub=ub)
    lp.objective = dict(objective)
    for coeffs, rel, rhs in constraints:
        lp.add_constraint(coeffs, rel, rhs)
    return lp


class TestLpExamples:
    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_single_bound(self, backend):
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, GE, 3.0)])
        sol = solve_lp(lp, backend=backend)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert sol["x"] == pytest.approx(3.0, abs=1e-9)

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_two_variables(self, backend):
        lp = lp_min({"x": 1.0, "y": 1.0},
                    [("x", 0.0, 0.5), ("y", 0.0, None)],
                    [({"x": 1.0, "y": 1.0}, GE, 2.0)])
        sol = solve_lp(lp, backend=backend)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_infeasible(self, backend):
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)],
                    [({"x": 1.0}, GE, 1.0), ({"x": 1.0}, LE, 0.0)])
        assert solve_lp(lp, backend=backend).status == "infeasible"

    def test_unbounded(self):
        lp = lp_min({"x": -1.0}, [("x", 0.0, None)], [])
        assert solve_lp(lp).status == "unbounded"

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_no_rows_optimal(self, backend):
        lp = lp_min({"x": 1.0}, [("x", 2.0, None)], [])
        sol = solve_lp(lp, backend=backend)
        assert sol.status == "optimal"
        assert sol["x"] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)

    def test_bland_ratio_test_tie_break(self):
        # phase 1 enters x0; rows 1 and 2 tie at ratio 1, and row 2 leaves
        # because its slack (column 5) precedes row 1's artificial (column 7).
        # Row 3's x0 entry is below PIVOT_TOL, so its ratio 0 is no candidate.
        # Row 1 leaving, or a pivot on row 3, would end at x0 = 0; repr pins
        # the exact floats.
        lp = lp_min({"x1": -2.0, "x2": 1.0},
                    [("x0", 0.0, None), ("x1", 0.0, None), ("x2", 0.0, None)],
                    [({"x1": 1.0}, LE, 2.0),
                     ({"x0": 2.0, "x1": 2.0, "x2": 1.0}, GE, 2.0),
                     ({"x0": 2.0, "x2": 1.0}, LE, 2.0),
                     ({"x0": 0.9 * PIVOT_TOL, "x2": -1.0}, LE, 0.0)])
        sol = solve_lp(lp)
        assert repr((sol.status, sol.objective_value, sol.values)) == \
            "('optimal', -4.0, {'x0': 1.0, 'x1': 2.0, 'x2': 0.0})"

    def test_equality_and_shifted_lower_bound(self):
        lp = lp_min({"x": 2.0, "y": 1.0},
                    [("x", 1.0, None), ("y", -2.0, None)],
                    [({"x": 1.0, "y": 1.0}, EQ, 3.0)])
        sol = solve_lp(lp)
        # x pinned at its lower bound, y picks up the rest
        assert sol["x"] == pytest.approx(1.0, abs=1e-9)
        assert sol["y"] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("lp, message", [
        pytest.param(lp_min({}, [("x", 0.0, None), ("x", 0.0, 1.0)], []),
                     "duplicate variable names", id="repeated-variable"),
        pytest.param(lp_min({"ghost": 1.0}, [("x", 0.0, None)], []),
                     "objective references unknown variable 'ghost'", id="unknown-objective"),
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, None)],
                            [({"x": 1.0}, GE, 1.0), ({"x": 1.0, "ghost": 2.0}, LE, 5.0)]),
                     "constraint 1 references unknown variable 'ghost'",
                     id="unknown-in-constraint")])
    @pytest.mark.parametrize("solve", [
        pytest.param(lambda lp: solve_lp(lp, backend="builtin"), id="builtin"),
        pytest.param(lambda lp: solve_lp(lp, backend="highs"), id="highs"),
        pytest.param(lambda lp: solve_mip(lp, []), id="mip")])
    def test_validate_rejects_unknown_names(self, solve, lp, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            solve(lp)


class TestRandomLpCrossCheck:
    def _random_lp(self, rng):
        n = rng.integers(2, 6)
        m = rng.integers(1, 6)
        # min c'x, A x >= b, 0 <= x <= ub: always feasible (x = ub large) and
        # bounded (c >= 0, x >= 0)
        c = rng.integers(0, 9, size=n).astype(float)
        A = rng.integers(0, 5, size=(m, n)).astype(float)
        A[:, 0] += 1  # no all-zero rows
        ub = rng.integers(3, 9, size=n).astype(float)
        x_feas = ub * rng.uniform(0.2, 1.0, size=n)
        b = A @ x_feas * rng.uniform(0.3, 1.0, size=m)
        variables = [(f"x{i}", 0.0, float(ub[i])) for i in range(n)]
        cons = [({f"x{i}": float(A[k, i]) for i in range(n)}, GE, float(b[k]))
                for k in range(m)]
        return lp_min({f"x{i}": float(c[i]) for i in range(n)}, variables, cons)

    def test_builtin_matches_scipy(self):
        rng = np.random.default_rng(20240817)
        for _ in range(60):
            lp = self._random_lp(rng)
            a = solve_lp(lp, backend="builtin")
            b = solve_lp(lp, backend="highs")
            assert a.status == b.status == "optimal"
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-6)
            assert not check_feasible(lp, a.values)

    def _mixed_lp(self, rng):
        # <=, >= and = rows through a known point x0, negative coefficients,
        # lower bounds in [-3, 2], some variables fixed (lb == ub, as branch
        # and bound fixes them) and some unbounded above with a nonnegative
        # cost: always feasible and bounded
        n, m = int(rng.integers(2, 6)), int(rng.integers(1, 6))
        lb = rng.integers(-3, 3, size=n).astype(float)
        width = rng.integers(0, 6, size=n).astype(float)
        x0 = lb + width * rng.uniform(0.1, 0.9, size=n)
        A = rng.integers(-4, 5, size=(m, n)).astype(float)
        c = rng.integers(-5, 6, size=n).astype(float)
        variables = []
        for i in range(n):
            free = width[i] > 0 and rng.uniform() < 0.25
            if free:
                c[i] = abs(c[i])
            variables.append((f"x{i}", float(lb[i]), None if free else float(lb[i] + width[i])))
        cons = []
        for k in range(m):
            rel = (LE, GE, EQ)[int(rng.integers(0, 3))]
            slack = {LE: 1.0, GE: -1.0, EQ: 0.0}[rel] * float(rng.uniform(0, 3))
            cons.append(({f"x{i}": float(A[k, i]) for i in range(n)}, rel,
                         float(A[k] @ x0) + slack))
        return lp_min({f"x{i}": float(c[i]) for i in range(n)}, variables, cons)

    def test_mixed_rows_match_highs(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            lp = self._mixed_lp(rng)
            a = solve_lp(lp, backend="builtin")
            b = solve_lp(lp, backend="highs")
            assert a.status == b.status == "optimal"
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-6)
            assert not check_feasible(lp, a.values)

    def test_weak_duality_certificate(self):
        # dual of  min c'x : A x >= b, x >= 0  is  max b'y : A'y <= c, y >= 0;
        # solve both and check the optimal objectives coincide
        rng = np.random.default_rng(7)
        for _ in range(30):
            n, m = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            c = rng.integers(1, 9, size=n).astype(float)
            A = rng.integers(0, 4, size=(m, n)).astype(float)
            A[:, 0] += 1
            b = rng.integers(0, 10, size=m).astype(float)
            primal = lp_min(
                {f"x{i}": c[i] for i in range(n)},
                [(f"x{i}", 0.0, None) for i in range(n)],
                [({f"x{i}": A[k, i] for i in range(n)}, GE, float(b[k]))
                 for k in range(m)])
            dual = lp_min(
                {f"y{k}": -b[k] for k in range(m)},
                [(f"y{k}", 0.0, None) for k in range(m)],
                [({f"y{k}": A[k, i] for k in range(m)}, LE, float(c[i]))
                 for i in range(n)])
            p = solve_lp(primal)
            d = solve_lp(dual)
            assert p.status == d.status == "optimal"
            assert p.objective_value == pytest.approx(-d.objective_value, abs=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(99)
        lp = self._random_lp(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert json.dumps(a.values, sort_keys=True) == json.dumps(b.values, sort_keys=True)


def linprog_reference(lp):
    """The HiGHS answer through scipy.optimize.linprog: the <= rows and the
    negated >= rows as sparse A_ub, the = rows as A_eq, None for no upper
    bound, and linprog's own parsing and check of the result."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_array

    index = {v.name: i for i, v in enumerate(lp.variables)}
    c = np.zeros(len(index))
    for name, coef in lp.objective.items():
        c[index[name]] += coef

    def stacked(cons, sign):
        entries = [(r, index[name], sign(con) * coef) for r, con in enumerate(cons)
                   for name, coef in con.coeffs.items()]
        rows, cols, data = zip(*entries) if entries else ((), (), ())
        return (coo_array((data, (rows, cols)), shape=(len(cons), len(index))).tocsr()
                if cons else None), [sign(con) * con.rhs for con in cons] or None

    flip = lambda con: -1.0 if con.relation == GE else 1.0
    A_ub, b_ub = stacked([con for con in lp.constraints if con.relation != EQ], flip)
    A_eq, b_eq = stacked([con for con in lp.constraints if con.relation == EQ], flip)
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(v.lb, v.ub) for v in lp.variables], method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[res.status]
    if status != "optimal":
        return Solution(status, {}, None)
    return Solution(status, dict(zip(index, res.x.tolist())), float(res.fun))


def estimation_lps():
    """Every LP that `estimate` hands to HiGHS on three random auctions, on an
    irrational switch (forced revealed-preference slack) and on a log whose
    hard LP is infeasible, so its fallback LP is solved too."""
    lps = []
    real = estimation.solve_lp

    def collect(lp, backend="builtin"):
        lps.append(lp)
        return real(lp, backend)

    catalog = ProductCatalog(products=tuple(
        Product(id=j, area_id=f"area-{j}", area_class="urban", supply=5,
                eligibility_points=1, opening_price=100_00) for j in ("A", "B")))
    switch = BundleSpace(
        bidder_id="X", bases=(BundleBase("X/bA", {"A": 1}), BundleBase("X/bB", {"B": 1})),
        ladders={"A": CopyLadder("A", (1,)), "B": CopyLadder("B", (1,))},
        observed={1: (Bundle({"A": 1}), "X/bA"), 2: (Bundle({"B": 1}), "X/bB")})
    rows = (BidRow(round=1, bidder_id="X", product_id="A", quantity=2),
            BidRow(round=2, bidder_id="X", product_id="A", quantity=1))
    holding = build_bundle_space(smooth_monotone(RawBidLog(rows=rows)), "X")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(estimation, "solve_lp", collect)
        for seed in (3000, 3001, 3002):
            config, agents = random_setup(seed, n_bidders=4, n_products=8)
            estimate_all(trace_to_bidlog(run_auction(config, agents)), config.catalog,
                         config.increments)
        estimation.estimate(switch, {1: PriceVector({"A": 10_00, "B": 0}),
                                     2: PriceVector({"A": 0, "B": 10_00})},
                            {1: 2, 2: 2}, catalog)
        _, report = estimation.estimate(holding, {1: PriceVector({"A": 10_00}),
                                                  2: PriceVector({"A": 3_00})},
                                        {1: 2, 2: 2}, catalog)
    assert report.fallback_used
    return lps


class TestHighsAdapter:
    """The HiGHS backend gives each status, and the answer linprog gives."""

    @pytest.mark.parametrize("lp", [
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, 1.0)], [({"x": 1.0}, GE, 2.0)]),
                     id="bound-against-row"),
        pytest.param(lp_min({"x": 1.0}, [("x", 2.0, 1.0)], []), id="crossed-bounds"),
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, None), ("y", 0.0, None)],
                            [({"x": 1.0, "y": 1.0}, EQ, 1.0), ({"x": 1.0}, GE, 2.0),
                             ({"y": 1.0}, GE, 0.0)]), id="mixed-rows")])
    def test_infeasible(self, lp):
        assert solve_lp(lp, backend="highs") == Solution("infeasible", {}, None)

    @pytest.mark.parametrize("lp", [
        pytest.param(lp_min({"x": -1.0}, [("x", 0.0, None)], []), id="no-rows"),
        pytest.param(lp_min({"x": -1.0}, [("x", 0.0, None), ("y", 0.0, None)],
                            [({"x": 1.0, "y": -1.0}, GE, 2.0), ({"y": 1.0}, LE, 5.0)]),
                     id="rows")])
    def test_unbounded(self, lp):
        assert solve_lp(lp, backend="highs") == Solution("unbounded", {}, None)

    def test_mixed_rows(self):
        # min x + 2y - z with x + y >= 2, x - z <= 1 and y + z = 3: z = 3 - y
        # makes the objective x + 3y - 3, least at y = 0, x = 2 on the >= row
        lp = lp_min({"x": 1.0, "y": 2.0, "z": -1.0},
                    [("x", 0.0, None), ("y", 0.0, None), ("z", 0.0, None)],
                    [({"x": 1.0, "y": 1.0}, GE, 2.0), ({"x": 1.0, "z": -1.0}, LE, 1.0),
                     ({"y": 1.0, "z": 1.0}, EQ, 3.0)])
        sol = solve_lp(lp, backend="highs")
        assert sol.status == "optimal"
        assert sol.values == pytest.approx({"x": 2.0, "y": 0.0, "z": 3.0}, abs=1e-9)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)
        assert sol == linprog_reference(lp)

    def test_matches_linprog_on_estimation_lps(self):
        lps = estimation_lps()
        answers = [solve_lp(lp, backend="highs") for lp in lps]
        assert {sol.status for sol in answers} == {"optimal", "infeasible"}
        assert answers == [linprog_reference(lp) for lp in lps]

    def test_matches_linprog_on_mixed_rows(self):
        rng = np.random.default_rng(20261018)
        lps = [TestRandomLpCrossCheck()._mixed_lp(rng) for _ in range(100)]
        assert [solve_lp(lp, backend="highs") for lp in lps] == \
            [linprog_reference(lp) for lp in lps]

    def test_point_outside_the_rows_is_an_error(self, monkeypatch):
        # linprog's check of the returned point (status 4 there) is kept
        import scipy.optimize
        from scipy.optimize import OptimizeResult
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, GE, 2.0)])
        monkeypatch.setattr(scipy.optimize, "milp", lambda *a, **k: OptimizeResult(
            status=0, x=np.array([1.0]), fun=1.0, message=""))
        with pytest.raises(SolverError):
            solve_lp(lp, backend="highs")


def csr_reference(lp):
    """The arguments of milp as the HiGHS adapter built them in one pass over
    the rows in linprog's order, signing each coefficient as it went: the cost
    vector and the constraint.  The reference for the adapter's signed and
    reordered rows of `_compile`."""
    from scipy.optimize import LinearConstraint
    from scipy.sparse import csr_array

    index = {v.name: i for i, v in enumerate(lp.variables)}
    inequalities = [con for con in lp.constraints if con.relation != EQ]
    indptr, indices, data, upper = [0], [], [], []
    for con in inequalities + [con for con in lp.constraints if con.relation == EQ]:
        sign = -1.0 if con.relation == GE else 1.0
        indices += map(index.__getitem__, con.coeffs)
        data += [sign * coef for coef in con.coeffs.values()]
        indptr.append(len(indices))
        upper.append(sign * con.rhs)
    A = csr_array((np.array(data, dtype=float), indices, indptr),
                  shape=(len(upper), len(index)))
    upper = np.array(upper, dtype=float)
    lower = upper.copy()
    lower[:len(inequalities)] = -np.inf
    c = np.zeros(len(index))
    for name, coef in lp.objective.items():
        c[index[name]] += coef
    return c, LinearConstraint(A, lower, upper)


def test_highs_receives_the_one_pass_arrays_bit_for_bit(monkeypatch):
    """milp gets the cost vector, matrix and row bounds of `csr_reference`,
    compared by bytes and dtype, on the mixed-row LPs of TestHighsAdapter, on
    the same LPs with each 0.0 coefficient written as -0.0 and with each
    dropped (rows of unequal length), on every estimation LP and on an LP
    without rows."""
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    rng = np.random.default_rng(20261018)
    mixed = [TestRandomLpCrossCheck()._mixed_lp(rng) for _ in range(100)]

    def recoded(lp, zero):
        """`lp` with each 0.0 coefficient replaced by `zero`, or dropped for None."""
        return lp_min(lp.objective, [(v.name, v.lb, v.ub) for v in lp.variables],
                      [({name: coef if coef != 0 else zero for name, coef in con.coeffs.items()
                         if coef != 0 or zero is not None}, con.relation, con.rhs)
                       for con in lp.constraints])

    lps = (mixed + [recoded(lp, -0.0) for lp in mixed] + [recoded(lp, None) for lp in mixed]
           + estimation_lps() + [lp_min({"x": 1.0}, [("x", 0.0, None)], [])])
    coefs = np.array([coef for lp in lps for con in lp.constraints
                      for coef in con.coeffs.values()])
    assert {False, True} <= set(np.signbit(coefs[coefs == 0]).tolist())

    def received(c, constraint):
        A = constraint.A
        return ([a.tobytes() for a in (c, A.indptr, A.indices, A.data, constraint.lb,
                                       constraint.ub)]
                + [A.shape, A.indptr.dtype, A.indices.dtype, A.data.dtype])

    got = []
    monkeypatch.setattr(scipy.optimize, "milp", lambda c, bounds, constraints: got.append(
        received(c, constraints)) or OptimizeResult(status=2))
    for lp in lps:
        assert solve_lp(lp, backend="highs").status == "infeasible"
    assert got == [received(*csr_reference(lp)) for lp in lps]


def mip_max(profits, weights, capacity):
    """0/1 knapsack as a minimization MIP: its LP and binaries."""
    lp = LinearProgram()
    for i in range(len(profits)):
        lp.add_variable(f"z{i}", lb=0.0, ub=1.0)
    lp.objective = {f"z{i}": -p for i, p in enumerate(profits)}
    lp.add_constraint({f"z{i}": w for i, w in enumerate(weights)}, LE, capacity)
    return lp, [f"z{i}" for i in range(len(profits))]


class TestMip:
    def test_knapsack_example(self):
        sol = solve_mip(*mip_max([3.0, 2.0], [1.0, 1.0], 1.0))
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)
        assert sol["z0"] == 1.0 and sol["z1"] == 0.0

    def test_pick_one_max_coefficient(self):
        lp = LinearProgram()
        for i in range(4):
            lp.add_variable(f"z{i}", lb=0.0, ub=1.0)
        lp.objective = {f"z{i}": -c for i, c in enumerate([1.0, 5.0, 2.0, 5.0])}
        lp.add_constraint({f"z{i}": 1.0 for i in range(4)}, EQ, 1.0)
        sol = solve_mip(lp, [f"z{i}" for i in range(4)])
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
        # deterministic tie-break: first optimal incumbent wins
        assert sol["z1"] == 1.0 and sol["z3"] == 0.0

    def test_infeasible_mip(self):
        lp = LinearProgram()
        lp.add_variable("z0", lb=0.0, ub=1.0)
        lp.add_constraint({"z0": 1.0}, GE, 2.0)
        assert solve_mip(lp, ["z0"]).status == "infeasible"

    def test_random_knapsacks_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            profits = rng.integers(1, 20, size=n).astype(float)
            weights = rng.integers(1, 10, size=n).astype(float)
            capacity = float(rng.integers(1, int(weights.sum()) + 1))
            sol = solve_mip(*mip_max(list(profits), list(weights), capacity))
            best = 0.0
            for mask in itertools.product((0, 1), repeat=n):
                if np.dot(mask, weights) <= capacity:
                    best = max(best, float(np.dot(mask, profits)))
            assert -sol.objective_value == pytest.approx(best, abs=1e-6)

    def test_binary_bounds_enforced(self):
        lp = LinearProgram()
        lp.add_variable("z0", lb=0.0, ub=2.0)
        with pytest.raises(ValidationError):
            solve_mip(lp, ["z0"])

    def test_unknown_binary_rejected(self):
        lp, binaries = mip_max([3.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValidationError, match="unknown binary variable 'z2'"):
            solve_mip(lp, [*binaries, "z2"])


class TestBranchAndBoundNodes:
    """solve_mip compiles (and so validates) its MIP once; each node shares
    the MIP's arrays and carries its own fixings."""

    def test_validate_once_per_mip(self, monkeypatch):
        mips = counted_knapsacks()
        calls = []
        real = solver._compile
        monkeypatch.setattr(solver, "_compile", lambda lp: calls.append(lp) or real(lp))
        for mip in mips:
            solve_mip(*mip)
        assert len(calls) == len(mips)
        assert all(lp is mip_lp for lp, (mip_lp, _) in zip(calls, mips))

    def test_nodes_carry_their_fixings(self, monkeypatch):
        nodes = []
        real = solver.solve_lp

        def record(lp, backend="builtin"):
            nodes.append((lp, real(lp, backend)))
            return nodes[-1][1]

        monkeypatch.setattr(solver, "solve_lp", record)
        for lp, binaries in counted_knapsacks():
            nodes.clear()
            solve_mip(lp, binaries)
            assert nodes[0][0].variables is lp.variables
            fixings = []
            for node, sol in nodes:
                assert (node.objective, node.constraints) == (lp.objective, lp.constraints)
                fixed = {}
                for v, original in zip(node.variables, lp.variables, strict=True):
                    if v is not original:
                        assert v.name in binaries and v.lb == v.ub in (0.0, 1.0)
                        fixed[v.name] = v.lb
                # a child fixes one more binary, one its parent's relaxation
                # left fractional
                if fixed:
                    ((before, parent),) = [
                        (before, parent) for (_, parent), before in zip(nodes, fixings)
                        if len(before) == len(fixed) - 1 and before.items() <= fixed.items()]
                    (name,) = fixed.keys() - before.keys()
                    assert abs(parent[name] - round(parent[name])) > solver.INT_TOL
                assert fixed not in fixings
                fixings.append(fixed)
                # the shared arrays answer as the node's own rows and bounds do
                assert solve_lp(LinearProgram(node.variables, node.objective,
                                              node.constraints)) == sol


def counted_knapsacks():
    """Seeded knapsack MIPs that also take exactly `count` items, each
    constraint system at three objectives, as a run asks a bidder at new
    prices.  The count row puts an artificial in every node, and fixings that
    leave too few or too many free items make a node infeasible."""
    rng = np.random.default_rng(7)
    mips = []
    for _ in range(25):
        n = int(rng.integers(3, 8))
        weights = [float(w) for w in rng.integers(1, 10, size=n)]
        capacity = float(rng.integers(1, int(sum(weights))))
        count = float(rng.integers(1, n + 1))
        for _ in range(3):
            lp, binaries = mip_max([float(p) for p in rng.integers(-5, 20, size=n)],
                                   weights, capacity)
            lp.add_constraint({name: 1.0 for name in binaries}, EQ, count)
            mips.append((lp, binaries))
    return mips


class TestPhase1Memo:
    """Inside phase1_memo() a constraint system solved before skips phase 1,
    and every answer is the one solved without the memo."""

    def test_random_mips_match_without_memo(self, monkeypatch):
        mips = counted_knapsacks()
        plain = [solve_mip(*mip) for mip in mips]
        solves = []
        real = solver.solve_lp
        monkeypatch.setattr(solver, "solve_lp",
                            lambda lp, backend="builtin": solves.append(1) or real(lp, backend))
        with phase1_memo():
            served = [solve_mip(*mip) for mip in mips]
            memo = PHASE1.get()
        assert served == plain
        assert {sol.status for sol in plain} == {"optimal", "infeasible"}
        assert None in memo.values() and len(memo) < len(solves)
        assert PHASE1.get() is None

    def test_infeasible_phase1_is_served_again(self, monkeypatch):
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)],
                    [({"x": 1.0}, GE, 2.0), ({"x": 1.0}, LE, 1.0)])
        calls = []
        real = solver._phase1
        monkeypatch.setattr(solver, "_phase1", lambda *a: calls.append(1) or real(*a))
        with phase1_memo():
            assert [solve_lp(lp).status for _ in range(3)] == ["infeasible"] * 3
            assert list(PHASE1.get().values()) == [None]
        assert len(calls) == 1

    @pytest.mark.parametrize("first, second, same_rows", [
        # row 0 is x0 + x1 <= 3 on a slack in the first, x0 + x1 = 3 on an
        # artificial in the second: the tableau rows match bit for bit and
        # only first_art tells them apart (x1 = 0 against x1 = 2)
        pytest.param(lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, LE, 3.0), ({"x0": 1.0}, EQ, 1.0)]),
                     lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, EQ, 3.0), ({"x0": 1.0}, EQ, 1.0)]),
                     True, id="first_art"),
        # the surplus column of x0 + x1 >= 1 is the structural x2 of
        # x0 + x1 - x2 = 1: same rows, only n differs
        pytest.param(lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 1.0), ({"x0": 1.0}, EQ, 1.0)]),
                     lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None),
                                          ("x2", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0, "x2": -1.0}, EQ, 1.0),
                             ({"x0": 1.0}, EQ, 1.0)]),
                     True, id="n"),
        pytest.param(lp_min({"x0": 1.0, "x1": 2.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 1.0)]),
                     lp_min({"x0": 1.0, "x1": 2.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 2.0)]),
                     False, id="rhs")])
    def test_distinct_systems_are_never_shared(self, first, second, same_rows):
        plain = [solve_lp(first), solve_lp(second)]
        with phase1_memo():
            served = [solve_lp(first), solve_lp(second), solve_lp(first)]
            keys = list(PHASE1.get())
        assert served == plain + plain[:1]
        # key: (shape, n, first_art, nonzero positions, their bits)
        assert len(keys) == 2 and keys[0][0] == keys[1][0]
        assert (keys[0][3:] == keys[1][3:]) == same_rows


def loop_reference(lp):
    """The built-in simplex with its tableau built, priced out and read one
    row at a time, and phase 1 always solved: the reference for the
    vectorised build and the phase-1 memo, whose answers must be identical."""
    n = len(lp.variables)
    index = {v.name: i for i, v in enumerate(lp.variables)}
    lbs = np.array([v.lb for v in lp.variables], dtype=float)
    rows = []

    def add(row, rel, rhs):
        rows.append((-row, {LE: GE, GE: LE, EQ: EQ}[rel], -rhs) if rhs < 0 else (row, rel, rhs))

    for con in lp.constraints:
        row = np.zeros(n)
        for name, coef in con.coeffs.items():
            row[index[name]] += coef
        add(row, con.relation, con.rhs - row @ lbs)
    for i, v in enumerate(lp.variables):
        if v.ub is not None:
            row = np.zeros(n)
            row[i] = 1.0
            add(row, LE, v.ub - v.lb)
    m = len(rows)
    slacks = [i for i, (_, rel, _) in enumerate(rows) if rel != EQ]
    arts = [i for i, (_, rel, _) in enumerate(rows) if rel != LE]
    first_art = n + len(slacks)
    total = first_art + len(arts)
    T = np.zeros((m + 1, total + 1))
    basis = [0] * m
    for i, (row, _, rhs) in enumerate(rows):
        T[i, :n] = row
        T[i, -1] = rhs
    for col, i in enumerate(slacks, n):
        T[i, col] = 1.0 if rows[i][1] == LE else -1.0
        basis[i] = col
    for col, i in enumerate(arts, first_art):
        T[i, col] = 1.0
        basis[i] = col
    if arts:
        T[-1, first_art:total] = 1.0
        for i in arts:
            T[-1, :] -= T[i, :]
        solver._simplex_phase(T, basis, total)
        if -T[-1, -1] > 1e-7 * max(1.0, max(rhs for _, _, rhs in rows)):
            return Solution("infeasible", {}, None)
        for i in range(m):
            if basis[i] >= first_art:
                cols = np.flatnonzero(np.abs(T[i, :first_art]) > PIVOT_TOL)
                if cols.size:
                    solver._pivot(T, i, int(cols[0]))
                    basis[i] = int(cols[0])
        T[:m, first_art:total] = 0.0
    c = np.zeros(n)
    for name, coef in lp.objective.items():
        c[index[name]] += coef
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1, :] -= T[-1, basis[i]] * T[i, :]
    if solver._simplex_phase(T, basis, total) == "unbounded":
        return Solution("unbounded", {}, None)
    y = np.zeros(total)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    x = y[:n] + lbs
    values = {v.name: float(x[i]) for i, v in enumerate(lp.variables)}
    return Solution("optimal", values, float(c @ y[:n] + c @ lbs))


def test_matches_loop_reference_bit_for_bit(monkeypatch):
    """The tableau and basis each simplex phase starts from, bit for bit, and
    every answer by repr, on rows with negative, -0.0 and integer
    coefficients, negative right-hand sides, lower bounds, fixed and crossed
    bounds, and on the branch-and-bound nodes of `counted_knapsacks`."""
    rng = np.random.default_rng(5)
    lps = []
    for _ in range(400):
        lp = LinearProgram()
        n = int(rng.integers(1, 7))
        for i in range(n):
            lb = float(rng.integers(-3, 3))
            ub = [None, lb, lb + float(rng.integers(-1, 6))][int(rng.integers(0, 3))]
            lp.add_variable(f"x{i}", lb, ub)
        lp.objective = {f"x{i}": float(rng.integers(-4, 5)) for i in range(n)
                        if rng.random() < 0.8}
        for _ in range(int(rng.integers(0, 6))):
            coeffs = {f"x{i}": [float(rng.normal()), int(rng.integers(-3, 4)), -0.0][
                int(rng.integers(0, 3))] for i in range(n) if rng.random() < 0.6}
            rhs = [float(rng.normal() * 3), -0.0, 0][int(rng.integers(0, 3))]
            lp.add_constraint(coeffs, [LE, GE, EQ][int(rng.integers(0, 3))], rhs)
        lps.append(lp)
    real_lp = solver.solve_lp
    monkeypatch.setattr(solver, "solve_lp",
                        lambda lp, backend="builtin": lps.append(lp) or real_lp(lp, backend))
    for mip in counted_knapsacks():
        solve_mip(*mip)
    monkeypatch.undo()

    starts = []
    real_phase = solver._simplex_phase
    monkeypatch.setattr(solver, "_simplex_phase", lambda T, basis, ncols: starts.append(
        (T.tobytes(), tuple(basis), ncols)) or real_phase(T, basis, ncols))

    def runs(solve):
        out = []
        for lp in lps:
            starts.clear()
            sol = solve(lp)
            out.append((repr((sol.status, sol.objective_value, sol.values)), list(starts)))
        return out

    def served(answer, phases):
        """What a run shows when the memo serves its phase 1: it starts at
        phase 2, or stops at once when phase 1 was infeasible."""
        return answer, phases[1:] if len(phases) == 2 or "infeasible" in answer else phases

    expected = runs(loop_reference)
    assert {"optimal", "infeasible", "unbounded"} <= {a.split("'")[1] for a, _ in expected}
    assert runs(solve_lp) == expected
    with phase1_memo():
        first, second = runs(solve_lp), runs(solve_lp)
    # the knapsack nodes repeat their systems, so the first pass has hits too
    assert all(got in (want, served(*want)) for got, want in zip(first, expected))
    assert first != expected and second == [served(*want) for want in expected]


class TestLpFormatDump:
    def test_smoke(self, tmp_path):
        lp = lp_min({"x": 1.0, "y": -2.0},
                    [("x", 0.0, 5.0), ("y", 0.0, None)],
                    [({"x": 1.0, "y": 1.0}, LE, 4.0), ({"x": 1.0}, GE, 1.0)])
        path = tmp_path / "model.lp"
        write_lp_format(lp, path)
        text = path.read_text()
        assert text.startswith("Minimize")
        assert "Subject To" in text and "Bounds" in text and text.rstrip().endswith("End")
