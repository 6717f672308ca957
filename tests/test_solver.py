import itertools
import json

import numpy as np
import pytest

from clockauction.errors import ValidationError
from clockauction.solver import (EQ, GE, LE, PIVOT_TOL, LinearProgram,
                                 MixedIntegerProgram, check_feasible,
                                 solve_lp, solve_mip, write_lp_format)


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

    def test_validate_rejects_unknown_names(self):
        lp = lp_min({"ghost": 1.0}, [("x", 0.0, None)], [])
        with pytest.raises(ValidationError):
            solve_lp(lp)


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


def mip_max(profits, weights, capacity):
    """0/1 knapsack as a minimization MIP."""
    lp = LinearProgram()
    for i in range(len(profits)):
        lp.add_variable(f"z{i}", lb=0.0, ub=1.0)
    lp.objective = {f"z{i}": -p for i, p in enumerate(profits)}
    lp.add_constraint({f"z{i}": w for i, w in enumerate(weights)}, LE, capacity)
    return MixedIntegerProgram(lp, binaries=[f"z{i}" for i in range(len(profits))])


class TestMip:
    def test_knapsack_example(self):
        sol = solve_mip(mip_max([3.0, 2.0], [1.0, 1.0], 1.0))
        assert sol.objective_value == pytest.approx(-3.0, abs=1e-9)
        assert sol["z0"] == 1.0 and sol["z1"] == 0.0

    def test_pick_one_max_coefficient(self):
        lp = LinearProgram()
        for i in range(4):
            lp.add_variable(f"z{i}", lb=0.0, ub=1.0)
        lp.objective = {f"z{i}": -c for i, c in enumerate([1.0, 5.0, 2.0, 5.0])}
        lp.add_constraint({f"z{i}": 1.0 for i in range(4)}, EQ, 1.0)
        sol = solve_mip(MixedIntegerProgram(lp, binaries=[f"z{i}" for i in range(4)]))
        assert sol.objective_value == pytest.approx(-5.0, abs=1e-9)
        # deterministic tie-break: first optimal incumbent wins
        assert sol["z1"] == 1.0 and sol["z3"] == 0.0

    def test_infeasible_mip(self):
        lp = LinearProgram()
        lp.add_variable("z0", lb=0.0, ub=1.0)
        lp.add_constraint({"z0": 1.0}, GE, 2.0)
        assert solve_mip(MixedIntegerProgram(lp, binaries=["z0"])).status == "infeasible"

    def test_random_knapsacks_match_brute_force(self):
        rng = np.random.default_rng(123)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            profits = rng.integers(1, 20, size=n).astype(float)
            weights = rng.integers(1, 10, size=n).astype(float)
            capacity = float(rng.integers(1, int(weights.sum()) + 1))
            sol = solve_mip(mip_max(list(profits), list(weights), capacity))
            best = 0.0
            for mask in itertools.product((0, 1), repeat=n):
                if np.dot(mask, weights) <= capacity:
                    best = max(best, float(np.dot(mask, profits)))
            assert -sol.objective_value == pytest.approx(best, abs=1e-6)

    def test_binary_bounds_enforced(self):
        lp = LinearProgram()
        lp.add_variable("z0", lb=0.0, ub=2.0)
        with pytest.raises(ValidationError):
            solve_mip(MixedIntegerProgram(lp, binaries=["z0"]))


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
