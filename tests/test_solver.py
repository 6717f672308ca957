import copy
import functools
import itertools
import json
import math
import re
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import clockauction.estimation as estimation
import clockauction.solver as solver
from clockauction.core import Bundle, PriceVector, Product, ProductCatalog
from clockauction.engine import run_auction
from clockauction.errors import SolverError, ValidationError
from clockauction.ingest import (BundleBase, BundleSpace, CopyLadder, RawBidLog,
                                 build_bundle_space, smooth_monotone)
from clockauction.pipeline import estimate_all, trace_to_bidlog
from clockauction.solver import (EQ, GE, LE, PIVOT_TOL, LinearProgram, Rows, Solution,
                                 solve_lp, solve_mip, write_lp_format)
from clockauction.synthetic import random_setup


def lp_min(objective, variables, constraints):
    """The LP that minimizes `objective`, {name: cost}, over `variables`,
    (name, lb, ub) with None or +inf for no upper bound, subject to
    `constraints`, (coeffs, relation, rhs) with coeffs {name: coefficient}:
    made whole, as estimation and the bidder oracle make theirs, its dict
    rows written into `Rows` in order.  Each cost is 0.0 plus its
    coefficient, 0.0 where `objective` names no cost."""
    variables, constraints = list(variables), list(constraints)
    names = [name for name, _, _ in variables]
    column = {name: k for k, name in enumerate(names)}
    costs = [0.0] * len(names)
    for name, coef in objective.items():
        costs[column[name]] += coef
    lp = LinearProgram(names, costs, Rows(
        list(itertools.accumulate((len(coeffs) for coeffs, _, _ in constraints), initial=0)),
        [column[name] for coeffs, _, _ in constraints for name in coeffs],
        [coef for coeffs, _, _ in constraints for coef in coeffs.values()],
        [float(rhs) for _, _, rhs in constraints], [rel for _, rel, _ in constraints]))
    lp.lb = [float(lb) for _, lb, _ in variables]
    lp.ub = [math.inf if ub is None else float(ub) for _, _, ub in variables]
    return lp


def constraints(lp):
    """The rows of `lp` as `lp_min` takes them, (coeffs, relation, rhs) in
    order, each coeffs {name: coefficient} in the row's order."""
    rows = lp.rows
    return [(dict(zip([lp.names[k] for k in rows.indices[a:b].tolist()],
                      rows.data[a:b].tolist())), rel, rhs)
            for a, b, rel, rhs in zip(rows.indptr[:-1].tolist(), rows.indptr[1:].tolist(),
                                      rows.relations, rows.rhs)]


def columns(lp):
    """The columns of `lp` as `lp_min` takes them, (name, lb, ub)."""
    return list(zip(lp.names, lp.lb, lp.ub))


class TestLpExamples:
    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_single_bound(self, backend):
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, GE, 3.0)])
        sol = solve_lp(lp, backend=backend)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)
        assert sol.values["x"] == pytest.approx(3.0, abs=1e-9)

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
        assert sol.values["x"] == pytest.approx(2.0, abs=1e-9)
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
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-9)
        assert sol.values["y"] == pytest.approx(2.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(4.0, abs=1e-9)

    @pytest.mark.parametrize("build, message", [
        pytest.param(lambda: lp_min({}, [("x", 0.0, None), ("x", 0.0, 1.0)], []),
                     "duplicate variable names", id="repeated-variable"),
        # the column-at-a-time calls of the benchmark's setup
        pytest.param(lambda: LinearProgram(["x"]).add_variable("x"),
                     "duplicate variable names", id="repeated-added-variable"),
        pytest.param(lambda: setattr(LinearProgram(["x"]), "objective", {"ghost": 1.0}),
                     "objective references unknown variable 'ghost'", id="unknown-objective")])
    @pytest.mark.parametrize("solve", [
        pytest.param(lambda lp: solve_lp(lp, backend="builtin"), id="builtin"),
        pytest.param(lambda lp: solve_lp(lp, backend="highs"), id="highs"),
        pytest.param(lambda lp: solve_mip(lp, []), id="mip")])
    def test_validate_rejects_unknown_names(self, solve, build, message):
        """The LP refuses the name as it is made, or as a column or the
        objective is set by name, so no backend and no MIP ever sees it."""
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            solve(build())


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
            assert not feasible_reference(lp, a.values)

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
            assert not feasible_reference(lp, a.values)

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

    index = {name: i for i, name in enumerate(lp.names)}

    def stacked(cons):
        sign = lambda rel: -1.0 if rel == GE else 1.0
        entries = [(r, index[name], sign(rel) * coef) for r, (coeffs, rel, _) in enumerate(cons)
                   for name, coef in coeffs.items()]
        rows, cols, data = zip(*entries) if entries else ((), (), ())
        return (coo_array((data, (rows, cols)), shape=(len(cons), len(index))).tocsr()
                if cons else None), [sign(rel) * rhs for _, rel, rhs in cons] or None

    A_ub, b_ub = stacked([con for con in constraints(lp) if con[1] != EQ])
    A_eq, b_eq = stacked([con for con in constraints(lp) if con[1] == EQ])
    res = linprog(np.array(lp.costs, dtype=float), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                  bounds=[(lb, None if ub == math.inf else ub) for lb, ub in zip(lp.lb, lp.ub)],
                  method="highs")
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
    rows = ((1, "X", "A", 2), (2, "X", "A", 1))
    holding = build_bundle_space(smooth_monotone(RawBidLog.from_rows(rows)), "X")
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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_an_estimation_lp_solves_on_both_backends(seed):
    """The default backend takes an estimation LP, built whole from its rows,
    and agrees with HiGHS."""
    config, agents = random_setup(seed, n_bidders=3, n_products=4)
    estimates = estimate_all(trace_to_bidlog(run_auction(config, agents)), config.catalog,
                             config.increments, keep_lp=True)
    lp = estimates[agents[0].bidder_id].report.lp
    builtin, highs = solve_lp(lp), solve_lp(lp, backend="highs")
    assert builtin.status == highs.status == "optimal"
    assert builtin.objective_value == pytest.approx(highs.objective_value, abs=1e-6)
    assert feasible_reference(lp, builtin.values) == []


class TestHighsAdapter:
    """The HiGHS backend gives each status, and the answer linprog gives: bit
    for bit on the estimation LPs, within 1e-9 on mixed rows."""

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

    def test_agrees_with_linprog_on_mixed_rows(self):
        """HiGHS reads mixed <=, >= and = rows as written, where linprog
        negates the >= rows and moves the = rows last, so a point can differ
        from linprog's in the last bits: the same status, the objective within
        1e-9 relative, and every point inside the rows."""
        rng = np.random.default_rng(20261018)
        for lp in [TestRandomLpCrossCheck()._mixed_lp(rng) for _ in range(100)]:
            sol, ref = solve_lp(lp, backend="highs"), linprog_reference(lp)
            assert sol.status == ref.status == "optimal"
            assert sol.objective_value == pytest.approx(ref.objective_value, rel=1e-9)
            assert feasible_reference(lp, sol.values) == []

    @pytest.mark.parametrize("relation, off", [
        pytest.param(LE, 2.0 + 2 * solver.HIGHS_TOL, id="le-above"),
        pytest.param(GE, 2.0 - 2 * solver.HIGHS_TOL, id="ge-below"),
        pytest.param(EQ, 2.0 - 2 * solver.HIGHS_TOL, id="eq-below"),
        pytest.param(EQ, 2.0 + 2 * solver.HIGHS_TOL, id="eq-above")])
    def test_point_outside_the_rows_is_an_error(self, relation, off, monkeypatch):
        """A point HiGHS calls optimal is checked against the row's bounds, as
        linprog checked it (status 4 there): one outside by more than
        HIGHS_TOL on a side the row bounds is an error, one on the row is
        not."""
        core = highspy_core()
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, relation, 2.0)])

        def answering(x):
            return SimpleNamespace(passModel=lambda model: core.HighsStatus.kOk,
                                   run=lambda: core.HighsStatus.kOk,
                                   getModelStatus=lambda: core.HighsModelStatus.kOptimal,
                                   getSolution=lambda: SimpleNamespace(col_value=[x]),
                                   getInfo=lambda: SimpleNamespace(objective_function_value=x))
        monkeypatch.setattr(solver, "_highs", lambda core: answering(off))
        with pytest.raises(SolverError, match="outside the constraints"):
            solve_lp(lp, backend="highs")
        monkeypatch.setattr(solver, "_highs", lambda core: answering(2.0))
        assert solve_lp(lp, backend="highs") == Solution("optimal", {"x": 2.0}, 2.0)

    @pytest.mark.parametrize("lp", [
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": math.nan}, GE, 2.0)]),
                     id="nan-coefficient"),
        pytest.param(lp_min({"x": math.nan}, [("x", 0.0, None)], [({"x": 1.0}, GE, 2.0)]),
                     id="nan-cost"),
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": math.inf}, GE, 2.0)]),
                     id="inf-coefficient"),
        pytest.param(lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, LE, -math.inf)]),
                     id="inf-rhs"),
        pytest.param(lp_min({"x": 1.0}, [("x", math.nan, None)], []), id="nan-bound")])
    def test_non_finite_input_is_rejected_before_highs(self, lp, monkeypatch):
        """Both backends refuse the LP with the same error before HiGHS or the
        simplex sees it: the simplex would answer all but the NaN bound
        'optimal'."""
        monkeypatch.setattr(solver, "_highs", lambda core: pytest.fail("HiGHS was called"))
        monkeypatch.setattr(solver, "_simplex_phase", lambda *a: pytest.fail("simplex ran"))
        errors = []
        for backend in ("builtin", "highs"):
            with pytest.raises(ValidationError, match="^LP has a non-finite ") as error:
                solve_lp(lp, backend=backend)
            errors.append(str(error.value))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("backend", ["builtin", "highs"])
    def test_infinite_upper_bound_is_no_bound(self, backend):
        # read as a row y <= inf, ub = inf would make the simplex answer
        # 'optimal' with x = inf
        free = lp_min({"x": -1.0}, [("x", 0.0, math.inf)], [])
        assert solve_lp(free, backend=backend) == Solution("unbounded", {}, None)
        held = lp_min({"x": 1.0}, [("x", 0.0, math.inf)], [({"x": 1.0}, GE, 2.0)])
        assert solve_lp(held, backend=backend) == Solution("optimal", {"x": 2.0}, 2.0)
        assert columns(held) == [("x", 0.0, math.inf)]

    def test_a_model_highs_refuses_is_an_error(self):
        # HiGHS refuses a coefficient of 1e15 or more; milp reported that
        # model error as an infeasible LP
        with pytest.raises(SolverError, match="refused"):
            solve_lp(REFUSED, backend="highs")

    def test_scipy_without_the_bindings_is_an_error(self, monkeypatch, tmp_path):
        """Each way the bindings can be missing is the same SolverError, it
        leaves nothing registered, and the real bindings load afterwards."""
        (tmp_path / "scipy" / "optimize" / "_highspy").mkdir(parents=True)
        (tmp_path / "scipy" / "__init__.py").write_text("")
        cases = {
            # SciPy before 1.15: an installed scipy whose optimize/_highspy has no _core
            "no _core file": lambda patch: patch.syspath_prepend(str(tmp_path)),
            # find_spec reads a None entry as a package that is not installed
            "no scipy": lambda patch: patch.setitem(sys.modules, "scipy", None),
            "a None entry": lambda patch: patch.setitem(sys.modules, solver._HIGHSPY, None),
        }
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)], [])
        for case, simulate in cases.items():
            with monkeypatch.context() as patch:
                patch.delitem(sys.modules, solver._HIGHSPY, raising=False)
                patch.delitem(sys.modules, "scipy", raising=False)
                simulate(patch)
                with pytest.raises(SolverError, match=r"scipy>=1\.15"):
                    solve_lp(lp, backend="highs")
                assert sys.modules.get(solver._HIGHSPY) is None, case
        assert solve_lp(lp, backend="highs") == Solution("optimal", {"x": 0.0}, 0.0)


def highspy_core():
    from scipy.optimize._highspy import _core
    return _core


# a finite LP whose coefficient HiGHS refuses
REFUSED = lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1e20}, GE, 2.0)])


def test_the_threads_instance_keeps_no_state_between_calls(monkeypatch):
    """The thread's one HiGHS instance, reused through optimal, infeasible,
    unbounded and refused LPs, answers each as a fresh instance does, by repr;
    another thread gets its own instance and the same answers."""
    sequence = [
        lp_min({"x": 1.0, "y": 2.0, "z": -1.0},
               [("x", 0.0, None), ("y", 0.0, None), ("z", 0.0, None)],
               [({"x": 1.0, "y": 1.0}, GE, 2.0), ({"x": 1.0, "z": -1.0}, LE, 1.0),
                ({"y": 1.0, "z": 1.0}, EQ, 3.0)]),
        lp_min({"x": 1.0}, [("x", 0.0, None)], [({"x": 1.0}, GE, 1.0), ({"x": 1.0}, LE, 0.0)]),
        lp_min({"x": -1.0}, [("x", 0.0, None), ("y", 0.0, None)],
               [({"x": 1.0, "y": -1.0}, GE, 2.0), ({"y": 1.0}, LE, 5.0)]),
        REFUSED,
        TestRandomLpCrossCheck()._mixed_lp(np.random.default_rng(20261019))]

    def answer(lp):
        try:
            return repr(solve_lp(lp, backend="highs"))
        except SolverError as exc:
            return repr(exc)

    core = highspy_core()
    instance = solver._highs(core)
    reused = [answer(lp) for lp in sequence]
    assert solver._highs(core) is instance
    assert [a.split("(")[0] for a in reused] == ["Solution"] * 3 + ["SolverError", "Solution"]
    assert "'optimal'" in reused[0] and "'optimal'" in reused[4]
    fresh = []
    for lp in sequence:
        monkeypatch.setattr(solver, "_HIGHS", threading.local())
        fresh.append(answer(lp))
    assert reused == fresh
    monkeypatch.undo()

    other = {}
    thread = threading.Thread(target=lambda: other.update(
        answers=[answer(lp) for lp in sequence], instance=solver._highs(core)))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert other["instance"] is not instance
    assert other["answers"] == reused


def rows_reference(lp):
    """The cost vector, the rows in triplets and each row's bounds, built in
    one loop over the constraints as written: >= is [rhs, +inf], <= is
    [-inf, rhs] and = is [rhs, rhs].  The reference for the row-wise model
    the HiGHS adapter builds from an LP's `Rows`."""
    index = {name: i for i, name in enumerate(lp.names)}
    indptr, indices, data, lower, upper = [0], [], [], [], []
    for coeffs, rel, rhs in constraints(lp):
        indices += map(index.__getitem__, coeffs)
        data += coeffs.values()
        indptr.append(len(indices))
        lower.append(-math.inf if rel == LE else rhs)
        upper.append(math.inf if rel == GE else rhs)
    c = np.array(lp.costs, dtype=float)
    return c, (np.array(indptr, dtype=np.intp), np.array(indices, dtype=np.intp),
               np.array(data, dtype=float)), np.array(lower), np.array(upper)


def test_highs_receives_the_rows_as_written(monkeypatch):
    """HighsLp gets the cost vector, the LP's own row-wise triplets as
    `rows_reference` gives them, each row's bounds, the column bounds and
    no integrality, compared by bytes and dtype, on the mixed-row LPs of
    TestHighsAdapter, on the same LPs with each 0.0 coefficient written as
    -0.0 and with each dropped (rows of unequal length), on every estimation
    LP and on an LP without rows."""
    rng = np.random.default_rng(20261018)
    mixed = [TestRandomLpCrossCheck()._mixed_lp(rng) for _ in range(100)]

    def recoded(lp, zero):
        """`lp` with each 0.0 coefficient replaced by `zero`, or dropped for None."""
        return lp_min(dict(zip(lp.names, lp.costs)), columns(lp),
                      [({name: coef if coef != 0 else zero for name, coef in coeffs.items()
                         if coef != 0 or zero is not None}, rel, rhs)
                       for coeffs, rel, rhs in constraints(lp)])

    lps = (mixed + [recoded(lp, -0.0) for lp in mixed] + [recoded(lp, None) for lp in mixed]
           + estimation_lps() + [lp_min({"x": 1.0}, [("x", 0.0, None)], [])])
    coefs = np.array([coef for lp in lps for coeffs, _, _ in constraints(lp)
                      for coef in coeffs.values()])
    assert {False, True} <= set(np.signbit(coefs[coefs == 0]).tolist())

    def arrays(c, start, index, value, lower, upper, lb, ub):
        return ([a.tobytes() for a in (c, start, index, value, lower, upper, lb, ub)]
                + [a.dtype for a in (c, start, index, value, lower, upper, lb, ub)])

    def reference(lp):
        c, (indptr, indices, data), lower, upper = rows_reference(lp)
        lb, ub = np.array(lp.lb, dtype=float), np.array(lp.ub, dtype=float)
        return arrays(c, indptr, indices, data, lower, upper, lb, ub) + [
            (len(lower), len(c)), core.MatrixFormat.kRowwise, [True] * 3]

    def received(model, lp):
        A = model.a_matrix_
        assert (A.num_row_, A.num_col_) == (model.num_row_, model.num_col_)
        assert not hasattr(model, "integrality_")
        return arrays(model.col_cost_, A.start_, A.index_, A.value_, model.row_lower_,
                      model.row_upper_, model.col_lower_, model.col_upper_) + [
            (model.num_row_, model.num_col_), A.format_,
            [a is b for a, b in zip((A.start_, A.index_, A.value_),
                                    (lp.rows.indptr, lp.rows.indices, lp.rows.data))]]

    class RecordingLp:
        """Stands in for HighsLp, keeping what the adapter writes into it."""
        def __init__(self):
            self.a_matrix_ = SimpleNamespace()

    core = highspy_core()
    got = []
    refuse = SimpleNamespace(passModel=lambda model: got.append(model) or core.HighsStatus.kOk,
                             run=lambda: core.HighsStatus.kOk,
                             getModelStatus=lambda: core.HighsModelStatus.kInfeasible)
    monkeypatch.setattr(core, "HighsLp", RecordingLp)
    monkeypatch.setattr(solver, "_highs", lambda core: refuse)
    for lp in lps:
        assert solve_lp(lp, backend="highs").status == "infeasible"
    assert len(got) == len(lps)
    assert [received(model, lp) for model, lp in zip(got, lps)] == \
        [reference(lp) for lp in lps]


def feasible_reference(lp, values):
    """The rows of `lp` that the point `values` violates by more than 1e-6,
    each row scaled to a unit largest coefficient (or rhs, or 1): one loop
    over the constraint dicts."""
    bad = []
    for i, (coeffs, rel, rhs) in enumerate(constraints(lp)):
        act = sum(coef * values[name] for name, coef in coeffs.items())
        scale = max([abs(v) for v in coeffs.values()] + [abs(rhs), 1.0])
        resid = (act - rhs) / scale
        if ((rel == LE and resid > 1e-6)
                or (rel == GE and resid < -1e-6)
                or (rel == EQ and abs(resid) > 1e-6)):
            bad.append(i)
    return bad


def mip_max(profits, weights, capacity, more=()):
    """0/1 knapsack as a minimization MIP, with the rows `more` after its
    capacity row: its LP and binaries."""
    binaries = [f"z{i}" for i in range(len(profits))]
    lp = lp_min({f"z{i}": -p for i, p in enumerate(profits)},
                [(name, 0.0, 1.0) for name in binaries],
                [({f"z{i}": w for i, w in enumerate(weights)}, LE, capacity), *more])
    return lp, binaries


class TestMip:
    def test_knapsack_example(self):
        sol = solve_mip(*mip_max([3.0, 2.0], [1.0, 1.0], 1.0))
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)
        assert sol.values["z0"] == 1.0 and sol.values["z1"] == 0.0

    def test_pick_one_max_coefficient(self):
        lp = lp_min({f"z{i}": -c for i, c in enumerate([1.0, 5.0, 2.0, 5.0])},
                    [(f"z{i}", 0.0, 1.0) for i in range(4)],
                    [({f"z{i}": 1.0 for i in range(4)}, EQ, 1.0)])
        sol = solve_mip(lp, [f"z{i}" for i in range(4)])
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
        # deterministic tie-break: first optimal incumbent wins
        assert sol.values["z1"] == 1.0 and sol.values["z3"] == 0.0

    def test_infeasible_mip(self):
        lp = lp_min({}, [("z0", 0.0, 1.0)], [({"z0": 1.0}, GE, 2.0)])
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
        lp = lp_min({}, [("z0", 0.0, 2.0)], [])
        with pytest.raises(ValidationError):
            solve_mip(lp, ["z0"])

    def test_unknown_binary_rejected(self):
        lp, binaries = mip_max([3.0, 2.0], [1.0, 1.0], 1.0)
        with pytest.raises(ValidationError, match="unknown binary variable 'z2'"):
            solve_mip(lp, [*binaries, "z2"])


class TestBranchAndBoundNodes:
    """Each node of solve_mip is a copy of its MIP that shares its columns,
    costs and rows and carries its own fixings in its bounds."""

    def test_validate_once_per_mip(self, monkeypatch):
        """Every node shares its MIP's names, costs and rows, and the rows
        are checked for non-finite values once per MIP."""
        checks = []
        nonfinite = solver.Rows.nonfinite
        counted = functools.cached_property(lambda rows: checks.append(rows)
                                            or nonfinite.func(rows))
        counted.__set_name__(solver.Rows, "nonfinite")
        monkeypatch.setattr(solver.Rows, "nonfinite", counted)
        nodes = []
        real = solver.solve_lp
        monkeypatch.setattr(solver, "solve_lp",
                            lambda lp, backend="builtin": nodes.append(lp) or real(lp, backend))
        mips = counted_knapsacks()
        for lp, binaries in mips:
            nodes.clear()
            solve_mip(lp, binaries)
            assert nodes and all(node.names is lp.names and node.costs is lp.costs
                                 and node.rows is lp.rows for node in nodes)
        assert checks == [lp.rows for lp, _ in mips]

    def test_repriced_mips_share_rows_bit_for_bit(self):
        """A copy of a MIP re-priced at another objective, as a frame
        re-prices its MIP, shares the MIP's rows and solves as the MIP built
        afresh with that objective does, bit for bit."""
        mips = counted_knapsacks()
        for k in range(0, len(mips), 3):
            source, binaries = mips[k]
            for lp, _ in mips[k:k + 3]:
                shared = repriced(source, lp.costs)
                assert shared.rows is source.rows and shared.costs == lp.costs
                assert columns(shared) == columns(lp)
                assert constraints(shared) == constraints(lp)
                # repr tells every float apart, -0.0 from 0.0 too
                assert repr(solve_mip(shared, binaries)) == repr(solve_mip(lp, binaries))

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
            assert nodes[0][0].lb is lp.lb and nodes[0][0].ub is lp.ub
            fixings = []
            for node, sol in nodes:
                assert node.costs is lp.costs and node.rows is lp.rows
                fixed = {}
                for (name, lb, ub), original in zip(columns(node), columns(lp), strict=True):
                    if (name, lb, ub) != original:
                        assert name in binaries and lb == ub in (0.0, 1.0)
                        fixed[name] = lb
                # a child fixes one more binary, one its parent's relaxation
                # left fractional
                if fixed:
                    ((before, parent),) = [
                        (before, parent) for (_, parent), before in zip(nodes, fixings)
                        if len(before) == len(fixed) - 1 and before.items() <= fixed.items()]
                    (name,) = fixed.keys() - before.keys()
                    assert abs(parent.values[name] - round(parent.values[name])) > solver.INT_TOL
                assert fixed not in fixings
                fixings.append(fixed)
                # the shared rows answer as the node's own rows and bounds do
                assert solve_lp(lp_min(dict(zip(node.names, node.costs)), columns(node),
                                       constraints(node))) == sol


def repriced(mip, costs):
    """A copy of `mip` that shares its rows, at `costs`, as
    `engine.Frame.solve` re-prices its MIP."""
    lp = copy.copy(mip)
    lp.costs = costs
    return lp


def rebound(lp, lb, ub):
    """A copy of `lp` that shares its rows, with bounds `lb` and `ub`, as
    `solve_mip` makes its nodes."""
    node = copy.copy(lp)
    node.lb, node.ub = lb, ub
    return node


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
            mips.append(mip_max([float(p) for p in rng.integers(-5, 20, size=n)],
                                weights, capacity,
                                [({f"z{i}": 1.0 for i in range(n)}, EQ, count)]))
    return mips


def unmemoized(lp, backend="builtin"):
    """`solve_lp` with the phase-1 memo of the rows of `lp` emptied first."""
    lp.rows.phase1.clear()
    return solve_lp(lp, backend)


class TestPhase1Memo:
    """The rows keep each phase-1 result under the bounds it was solved at; a
    later solve over the same rows and bounds, at any costs, skips phase 1,
    and every answer is the one solved without the memo."""

    def test_random_mips_match_without_memo(self, monkeypatch):
        mips = counted_knapsacks()
        monkeypatch.setattr(solver, "solve_lp", unmemoized)
        plain = [solve_mip(*mip) for mip in mips]
        monkeypatch.undo()
        # each system's three objectives re-price its first MIP, as a frame
        # re-prices its MIP at each round's prices
        sources = [mips[k - k % 3][0] for k in range(len(mips))]
        for source in sources:
            source.rows.phase1.clear()
        solves, phases = [], []
        real, phase1 = solver.solve_lp, solver._phase1
        monkeypatch.setattr(solver, "solve_lp",
                            lambda lp, backend="builtin": solves.append(1) or real(lp, backend))
        monkeypatch.setattr(solver, "_phase1", lambda *a: phases.append(1) or phase1(*a))
        served = [solve_mip(repriced(source, lp.costs), binaries)
                  for source, (lp, binaries) in zip(sources, mips)]
        assert served == plain
        assert {sol.status for sol in plain} == {"optimal", "infeasible"}
        memos = [source.rows.phase1 for source in sources[::3]]
        assert any(None in memo.values() for memo in memos)
        assert len(phases) == sum(map(len, memos)) < len(solves)

    def test_infeasible_phase1_is_served_again(self, monkeypatch):
        """The 2nd and 3rd solves build no tableau and run no phase 1."""
        lp = lp_min({"x": 1.0}, [("x", 0.0, None)],
                    [({"x": 1.0}, GE, 2.0), ({"x": 1.0}, LE, 1.0)])
        calls, builds = [], []
        real, tableau = solver._phase1, solver._tableau
        monkeypatch.setattr(solver, "_phase1", lambda *a: calls.append(1) or real(*a))
        monkeypatch.setattr(solver, "_tableau", lambda *a: builds.append(1) or tableau(*a))
        statuses = []
        for _ in range(3):
            statuses.append(solve_lp(lp).status)
            assert (len(calls), len(builds)) == (1, 1)
        assert statuses == ["infeasible"] * 3
        assert list(lp.rows.phase1.values()) == [None]

    FIXABLE = lp_min({"x0": 1.0, "x1": 2.0}, [("x0", 0.0, 1.0), ("x1", 0.0, 1.0)],
                     [({"x0": 1.0, "x1": 1.0}, EQ, 1.0)])

    @pytest.mark.parametrize("first, second", [
        # row 0 is x0 + x1 <= 3 on a slack in the first, x0 + x1 = 3 on an
        # artificial in the second: the tableau rows match bit for bit and
        # only first_art tells them apart (x1 = 0 against x1 = 2)
        pytest.param(lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, LE, 3.0), ({"x0": 1.0}, EQ, 1.0)]),
                     lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, EQ, 3.0), ({"x0": 1.0}, EQ, 1.0)]),
                     id="first_art"),
        # the surplus column of x0 + x1 >= 1 is the structural x2 of
        # x0 + x1 - x2 = 1: same rows, only n differs
        pytest.param(lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 1.0), ({"x0": 1.0}, EQ, 1.0)]),
                     lp_min({"x1": 1.0}, [("x0", 0.0, None), ("x1", 0.0, None),
                                          ("x2", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0, "x2": -1.0}, EQ, 1.0),
                             ({"x0": 1.0}, EQ, 1.0)]),
                     id="n"),
        pytest.param(lp_min({"x0": 1.0, "x1": 2.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 1.0)]),
                     lp_min({"x0": 1.0, "x1": 2.0}, [("x0", 0.0, None), ("x1", 0.0, None)],
                            [({"x0": 1.0, "x1": 1.0}, GE, 2.0)]),
                     id="rhs"),
        # one set of rows under two bounds, as two branch-and-bound nodes
        pytest.param(FIXABLE, rebound(FIXABLE, [0.0, 1.0], [0.0, 1.0]), id="bounds"),
        # bounds that differ only in the sign of a zero
        pytest.param(FIXABLE, rebound(FIXABLE, [-0.0, 0.0], [1.0, 1.0]), id="signed-zero")])
    def test_distinct_systems_are_never_shared(self, first, second):
        plain = [unmemoized(first), unmemoized(second)]
        first.rows.phase1.clear()
        second.rows.phase1.clear()
        served = [solve_lp(first), solve_lp(second), solve_lp(first)]
        assert served == plain + plain[:1]
        # one entry each: (rows, bounds)
        entries = {(id(lp.rows), key) for lp in (first, second) for key in lp.rows.phase1}
        assert len(entries) == 2


def loop_reference(lp):
    """The built-in simplex with its tableau built, priced out and read one
    row at a time, but for the rows' products with the lower bounds, and
    phase 1 always solved: the reference for the vectorised build and the
    phase-1 memo, whose answers must be identical."""
    n = len(lp.names)
    index = {name: i for i, name in enumerate(lp.names)}
    lbs = np.array(lp.lb, dtype=float)
    rows = []

    def add(row, rel, rhs):
        rows.append((-row, {LE: GE, GE: LE, EQ: EQ}[rel], -rhs) if rhs < 0 else (row, rel, rhs))

    written = []
    for coeffs, rel, rhs in constraints(lp):
        row = np.zeros(n)
        for name, coef in coeffs.items():
            row[index[name]] += coef
        written.append((row, rel, rhs))
    # each rhs less its row times the lower bounds, the products taken as
    # one matrix-vector product, whose bits the simplex's must be
    shifts = np.array([row for row, _, _ in written]).reshape(-1, n) @ lbs
    for (row, rel, rhs), shift in zip(written, shifts.tolist()):
        add(row, rel, rhs - shift)
    for i, (lb, ub) in enumerate(zip(lp.lb, lp.ub)):
        if ub != math.inf:
            row = np.zeros(n)
            row[i] = 1.0
            add(row, LE, ub - lb)
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
    c = np.array(lp.costs, dtype=float)
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
    values = dict(zip(lp.names, x.tolist()))
    return Solution("optimal", values, float(c @ y[:n] + c @ lbs))


def test_matches_loop_reference_bit_for_bit(monkeypatch):
    """The tableau and basis each simplex phase starts from, bit for bit, and
    every answer by repr, on rows with negative, -0.0 and integer
    coefficients, negative right-hand sides, lower bounds, fixed and crossed
    bounds, and on the branch-and-bound nodes of `counted_knapsacks`."""
    rng = np.random.default_rng(5)
    lps = []
    for _ in range(400):
        n = int(rng.integers(1, 7))
        variables, rows = [], []
        for i in range(n):
            lb = float(rng.integers(-3, 3))
            ub = [None, lb, lb + float(rng.integers(-1, 6))][int(rng.integers(0, 3))]
            variables.append((f"x{i}", lb, ub))
        objective = {f"x{i}": float(rng.integers(-4, 5)) for i in range(n)
                     if rng.random() < 0.8}
        for _ in range(int(rng.integers(0, 6))):
            coeffs = {f"x{i}": [float(rng.normal()), int(rng.integers(-3, 4)), -0.0][
                int(rng.integers(0, 3))] for i in range(n) if rng.random() < 0.6}
            rhs = [float(rng.normal() * 3), -0.0, 0][int(rng.integers(0, 3))]
            rows.append((coeffs, [LE, GE, EQ][int(rng.integers(0, 3))], rhs))
        lps.append(lp_min(objective, variables, rows))
    real_lp = solver.solve_lp
    monkeypatch.setattr(solver, "solve_lp",
                        lambda lp, backend="builtin": lps.append(lp) or real_lp(lp, backend))
    mips = counted_knapsacks()
    for k, (lp, binaries) in enumerate(mips):
        solve_mip(repriced(mips[k - k % 3][0], lp.costs), binaries)
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
    assert runs(unmemoized) == expected
    for lp in lps:
        lp.rows.phase1.clear()
    first, second = runs(solve_lp), runs(solve_lp)
    # the nodes of a system's three objectives share rows and bounds, so the
    # first pass has hits too
    assert all(got in (want, served(*want)) for got, want in zip(first, expected))
    assert first != expected and second == [served(*want) for want in expected]


def reference_phase(T, basis, ncols):
    """Bland-rule pivots written plainly: the lowest improving column, then
    the ratio test over every row with an entry above PIVOT_TOL, and each
    pivot clearing the column from the rows with a nonzero entry there."""
    m = T.shape[0] - 1
    while True:
        improving = (T[-1, :ncols] < -PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return "optimal"
        enter = int(improving[0])
        rows = (T[:m, enter] > PIVOT_TOL).nonzero()[0].tolist()
        if not rows:
            return "unbounded"
        ratios = (T[rows, -1] / T[rows, enter]).tolist()
        leave, best = rows[0], ratios[0]
        for i, ratio in zip(rows, ratios):
            if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12 and basis[i] < basis[leave]):
                leave, best = i, ratio
        T[leave, :] /= T[leave, enter]
        factors = T[:, enter].copy()
        factors[leave] = 0.0
        rows = (factors != 0.0).nonzero()[0]
        T[rows, :] -= factors[rows, None] * T[leave, :]
        basis[leave] = enter


def test_simplex_phase_matches_reference_pivots(monkeypatch):
    """Every simplex phase of the knapsack MIPs, of a tiered auction and of
    an unbounded LP ends with the tableau bytes, basis and status of
    `reference_phase`, from the same start."""
    from clockauction.tiered import TieredValuationAdjustment, run_extended_auction

    starts = []
    real = solver._simplex_phase
    monkeypatch.setattr(solver, "_simplex_phase", lambda T, basis, ncols: starts.append(
        (T.copy(), list(basis), ncols)) or real(T, basis, ncols))
    for mip in counted_knapsacks():
        solve_mip(*mip)
    config, agents = random_setup(1, n_bidders=4, n_products=8, n_bases=2)
    run_extended_auction(config, agents, TieredValuationAdjustment.zero(
        [a.bidder_id for a in agents], sorted({p.area_id for p in config.catalog})))
    assert solve_lp(lp_min({"x": -1.0}, [("x", 0.0, None)], [])).status == "unbounded"
    monkeypatch.undo()
    assert len(starts) > 100
    for T, basis, ncols in starts:
        got, want = (T.copy(), list(basis)), (T.copy(), list(basis))
        assert real(*got, ncols) == reference_phase(*want, ncols)
        assert (got[0].tobytes(), got[1]) == (want[0].tobytes(), want[1])


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

    def test_money_and_names_read_back_exactly(self, tmp_path):
        """A right-hand side above 10**12 cents and a bound with 17
        significant digits read back bit for bit, and a comment line gives
        each column's name, which HiGHS's LP reader would refuse."""
        lp = lp_min({"vb::B0/base0": 1.0, "sl::2::B0": -1.0},
                    [("vb::B0/base0", 0.0, None), ("sl::2::B0", 0.0, 0.1 + 0.2)],
                    [({"vb::B0/base0": 3.0, "sl::2::B0": -0.1}, GE, 1234567890123.0)])
        path = tmp_path / "model.lp"
        write_lp_format(lp, path)
        comments = [line for line in path.read_text().splitlines() if line.startswith("\\")]
        assert comments == ['\\ x0 "vb::B0/base0"', '\\ x1 "sl::2::B0"']
        core = solver._highspy()
        options = core.HighsOptions()
        options.log_to_console = False
        highs = core._Highs()
        highs.passOptions(options)
        assert highs.readModel(str(path)) == core.HighsStatus.kOk
        read = highs.getLp()
        assert list(read.row_lower_) == [1234567890123.0]
        assert list(read.col_upper_) == [math.inf, 0.1 + 0.2]
        assert list(read.col_cost_) == [1.0, -1.0]
