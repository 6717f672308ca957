"""Deterministic LP/MIP solving.

The built-in path is a dense two-phase simplex with Bland's rule plus a
depth-first branch-and-bound for binary variables: no external solver in the
loop, so identical inputs give identical outputs byte for byte.  A "highs"
backend (scipy.optimize.linprog) is available through the same interface for
large instances; it is also deterministic for fixed inputs but is not the
reference implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import atomic_write
from .errors import SolverError, ValidationError

FEAS_TOL = 1e-6   # on row activity after scaling rows to unit max coefficient
PIVOT_TOL = 1e-9
INT_TOL = 1e-7

LE, GE, EQ = "<=", ">=", "="


@dataclass(frozen=True)
class Variable:
    name: str
    lb: float = 0.0
    ub: float | None = None  # None = +inf


@dataclass(frozen=True)
class Constraint:
    coeffs: dict[str, float]
    relation: str
    rhs: float

    def __post_init__(self):
        if self.relation not in (LE, GE, EQ):
            raise ValidationError(f"bad relation {self.relation!r}")
        object.__setattr__(self, "coeffs", dict(self.coeffs))


@dataclass
class LinearProgram:
    """Minimization LP over named variables."""
    variables: list[Variable] = field(default_factory=list)
    objective: dict[str, float] = field(default_factory=dict)
    constraints: list[Constraint] = field(default_factory=list)

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None) -> str:
        self.variables.append(Variable(name, lb, ub))
        return name

    def add_constraint(self, coeffs: dict[str, float], relation: str, rhs: float) -> None:
        self.constraints.append(Constraint(coeffs, relation, rhs))

    def validate(self) -> None:
        names = {v.name for v in self.variables}
        if len(names) != len(self.variables):
            raise ValidationError("duplicate variable names")
        for name in self.objective:
            if name not in names:
                raise ValidationError(f"objective references unknown variable {name!r}")
        for i, con in enumerate(self.constraints):
            for name in con.coeffs:
                if name not in names:
                    raise ValidationError(f"constraint {i} references unknown variable {name!r}")


@dataclass
class MixedIntegerProgram:
    lp: LinearProgram
    binaries: list[str] = field(default_factory=list)

    def validate(self) -> None:
        self.lp.validate()
        bounds = {v.name: (v.lb, v.ub) for v in self.lp.variables}
        for name in self.binaries:
            if name not in bounds:
                raise ValidationError(f"unknown binary variable {name!r}")
            if bounds[name] != (0.0, 1.0):
                raise ValidationError(f"binary variable {name!r} must have bounds [0, 1]")


@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded
    values: dict[str, float]
    objective_value: float | None

    def __getitem__(self, name: str) -> float:
        return self.values[name]


# ---------------------------------------------------------------------------
# built-in two-phase simplex (Bland's rule)


def _to_standard_form(lp: LinearProgram):
    """Shift variables to x = lb + y (y >= 0), finite ubs become rows.

    Returns (A, relations, b, c, recover) where recover maps a y-vector back
    to named original values.
    """
    n = len(lp.variables)
    index = {v.name: i for i, v in enumerate(lp.variables)}
    lbs = np.array([v.lb for v in lp.variables], dtype=float)
    if not np.all(np.isfinite(lbs)):
        raise ValidationError("variables need finite lower bounds")

    rows, rels, rhs = [], [], []
    for con in lp.constraints:
        row = np.zeros(n)
        for name, coef in con.coeffs.items():
            row[index[name]] += coef
        rows.append(row)
        rels.append(con.relation)
        rhs.append(con.rhs - row @ lbs)
    for i, v in enumerate(lp.variables):
        if v.ub is not None:
            row = np.zeros(n)
            row[i] = 1.0
            rows.append(row)
            rels.append(LE)
            rhs.append(v.ub - v.lb)

    A = np.array(rows, dtype=float) if rows else np.zeros((0, n))
    b = np.array(rhs, dtype=float)
    c = np.zeros(n)
    for name, coef in lp.objective.items():
        c[index[name]] += coef
    const = c @ lbs

    def recover(y: np.ndarray) -> dict[str, float]:
        x = y + lbs
        return {v.name: float(x[i]) for i, v in enumerate(lp.variables)}

    return A, rels, b, c, const, recover


def _simplex_phase(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Run Bland-rule pivots on tableau T in place; last row is the objective
    (minimize), last column the rhs. Returns 'optimal' or 'unbounded'."""
    m = T.shape[0] - 1
    while True:
        obj = T[-1, :ncols]
        enter = -1
        for j in range(ncols):
            if obj[j] < -PIVOT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        # ratio test, ties broken by smallest basis variable index (Bland)
        best = None
        for i in range(m):
            a = T[i, enter]
            if a > PIVOT_TOL:
                ratio = T[i, -1] / a
                if best is None or ratio < best[0] - 1e-12 or (
                        abs(ratio - best[0]) <= 1e-12 and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _, leave = best
        piv = T[leave, enter]
        T[leave, :] /= piv
        for i in range(T.shape[0]):
            if i != leave and abs(T[i, enter]) > 0:
                T[i, :] -= T[i, enter] * T[leave, :]
        basis[leave] = enter


def _solve_lp_builtin(lp: LinearProgram) -> Solution:
    lp.validate()
    A, rels, b, c, const, recover = _to_standard_form(lp)
    m, n = A.shape
    if m == 0:
        # unconstrained over y >= 0: bounded iff all objective coefs >= 0
        if np.any(c < -PIVOT_TOL):
            return Solution("unbounded", {}, None)
        y = np.zeros(n)
        return Solution("optimal", recover(y), float(const))

    # normalise rows to nonnegative rhs
    A = A.copy()
    b = b.copy()
    rels = list(rels)
    for i in range(m):
        if b[i] < 0:
            A[i, :] *= -1
            b[i] *= -1
            rels[i] = {LE: GE, GE: LE, EQ: EQ}[rels[i]]

    # columns: structural | slack/surplus | artificial
    n_slack = sum(1 for r in rels if r != EQ)
    slack_cols = {}
    art_cols = {}
    col = n
    for i, r in enumerate(rels):
        if r != EQ:
            slack_cols[i] = col
            col += 1
    for i, r in enumerate(rels):
        # <= rows with b >= 0 start feasible on their slack; others need artificials
        if r != LE:
            art_cols[i] = col
            col += 1
    total = col

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis = [0] * m
    for i, r in enumerate(rels):
        if r == LE:
            T[i, slack_cols[i]] = 1.0
            basis[i] = slack_cols[i]
        elif r == GE:
            T[i, slack_cols[i]] = -1.0
            T[i, art_cols[i]] = 1.0
            basis[i] = art_cols[i]
        else:
            T[i, art_cols[i]] = 1.0
            basis[i] = art_cols[i]

    # phase 1: minimize sum of artificials
    if art_cols:
        for ac in art_cols.values():
            T[-1, ac] = 1.0
        for i in art_cols:
            T[-1, :] -= T[i, :]
        status = _simplex_phase(T, basis, total)
        if status == "unbounded":  # cannot happen for phase 1
            raise SolverError("phase-1 unbounded")
        if -T[-1, -1] > 1e-7 * max(1.0, abs(b).max()):
            return Solution("infeasible", {}, None)
        # drive remaining artificials out of the basis where possible
        art_set = set(art_cols.values())
        for i in range(m):
            if basis[i] in art_set:
                for j in range(total):
                    if j not in art_set and abs(T[i, j]) > PIVOT_TOL:
                        piv = T[i, j]
                        T[i, :] /= piv
                        for k in range(m + 1):
                            if k != i and abs(T[k, j]) > 0:
                                T[k, :] -= T[k, j] * T[i, :]
                        basis[i] = j
                        break
        # forbid artificials from re-entering
        for ac in art_set:
            T[:m, ac] = 0.0

    # phase 2
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        if T[-1, basis[i]] != 0.0:
            T[-1, :] -= T[-1, basis[i]] * T[i, :]
    status = _simplex_phase(T, basis, total)
    if status == "unbounded":
        return Solution("unbounded", {}, None)

    y = np.zeros(total)
    for i in range(m):
        y[basis[i]] = T[i, -1]
    values = recover(y[:n])
    obj = float(c @ y[:n] + const)
    return Solution("optimal", values, obj)


# ---------------------------------------------------------------------------
# highs backend


def _solve_lp_highs(lp: LinearProgram) -> Solution:
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    lp.validate()
    index = {v.name: i for i, v in enumerate(lp.variables)}
    n = len(lp.variables)
    c = np.zeros(n)
    for name, coef in lp.objective.items():
        c[index[name]] += coef
    bounds = [(v.lb, v.ub if v.ub is not None else None) for v in lp.variables]

    ub_rows, ub_rhs, eq_rows, eq_rhs = [], [], [], []

    def as_entries(coeffs, sign=1.0):
        return [(index[name], sign * coef) for name, coef in coeffs.items()]

    for con in lp.constraints:
        if con.relation == EQ:
            eq_rows.append(as_entries(con.coeffs))
            eq_rhs.append(con.rhs)
        elif con.relation == LE:
            ub_rows.append(as_entries(con.coeffs))
            ub_rhs.append(con.rhs)
        else:
            ub_rows.append(as_entries(con.coeffs, -1.0))
            ub_rhs.append(-con.rhs)

    def build(rows):
        data, ri, ci = [], [], []
        for i, row in enumerate(rows):
            for j, v in row:
                ri.append(i)
                ci.append(j)
                data.append(v)
        return csr_matrix((data, (ri, ci)), shape=(len(rows), n))

    res = linprog(
        c,
        A_ub=build(ub_rows) if ub_rows else None, b_ub=ub_rhs or None,
        A_eq=build(eq_rows) if eq_rows else None, b_eq=eq_rhs or None,
        bounds=bounds, method="highs",
    )
    if res.status == 2:
        return Solution("infeasible", {}, None)
    if res.status == 3:
        return Solution("unbounded", {}, None)
    if res.status != 0:
        raise SolverError(f"highs failed: {res.message}")
    values = {v.name: float(res.x[i]) for i, v in enumerate(lp.variables)}
    return Solution("optimal", values, float(res.fun))


# ---------------------------------------------------------------------------
# public interface


def solve_lp(lp: LinearProgram, backend: str = "builtin") -> Solution:
    """Solve a minimization LP. backend: 'builtin' (reference) or 'highs'."""
    if backend == "builtin":
        return _solve_lp_builtin(lp)
    if backend == "highs":
        return _solve_lp_highs(lp)
    raise ValidationError(f"unknown backend {backend!r}")


def check_feasible(lp: LinearProgram, values: dict[str, float], tol: float = FEAS_TOL) -> list[int]:
    """Indices of constraints violated beyond tol (rows scaled to unit max coefficient)."""
    bad = []
    for i, con in enumerate(lp.constraints):
        act = sum(coef * values[name] for name, coef in con.coeffs.items())
        scale = max([abs(v) for v in con.coeffs.values()] + [abs(con.rhs), 1.0])
        resid = (act - con.rhs) / scale
        if con.relation == LE and resid > tol:
            bad.append(i)
        elif con.relation == GE and resid < -tol:
            bad.append(i)
        elif con.relation == EQ and abs(resid) > tol:
            bad.append(i)
    return bad


def solve_mip(mip: MixedIntegerProgram) -> Solution:
    """Depth-first branch and bound over binary variables (built-in simplex).

    Branch order: lowest variable index first, 0-branch explored first; the
    first incumbent found at the optimal value wins, which makes the result
    deterministic.
    """
    mip.validate()
    binaries = [v.name for v in mip.lp.variables if v.name in set(mip.binaries)]

    best: dict = {"obj": None, "values": None}

    def relax_with(fixed: dict[str, float]) -> LinearProgram:
        lp = LinearProgram(
            variables=[
                Variable(v.name, fixed.get(v.name, v.lb), fixed.get(v.name, v.ub))
                for v in mip.lp.variables
            ],
            objective=dict(mip.lp.objective),
            constraints=mip.lp.constraints,
        )
        return lp

    def recurse(fixed: dict[str, float]):
        sol = solve_lp(relax_with(fixed))
        if sol.status == "infeasible":
            return
        if sol.status == "unbounded":
            raise SolverError("MIP relaxation unbounded")
        if best["obj"] is not None and sol.objective_value >= best["obj"] - 1e-9:
            return
        frac = None
        for name in binaries:
            v = sol.values[name]
            if abs(v - round(v)) > INT_TOL:
                frac = name
                break
        if frac is None:
            vals = dict(sol.values)
            for name in binaries:
                vals[name] = float(round(vals[name]))
            if best["obj"] is None or sol.objective_value < best["obj"] - 1e-9:
                best["obj"] = sol.objective_value
                best["values"] = vals
            return
        for branch in (0.0, 1.0):
            recurse({**fixed, frac: branch})

    recurse({})
    if best["obj"] is None:
        return Solution("infeasible", {}, None)
    return Solution("optimal", best["values"], best["obj"])


def write_lp_format(lp: LinearProgram, path) -> None:
    """Dump in CPLEX LP text format for cross-checking with external solvers."""
    def term(coef, name, first):
        sign = "-" if coef < 0 else ("" if first else "+")
        mag = abs(coef)
        return f" {sign} {mag:.12g} {name}" if not first else f"{sign}{mag:.12g} {name}"

    lines = ["Minimize", " obj:"]
    parts = []
    for i, (name, coef) in enumerate(sorted(lp.objective.items())):
        parts.append(term(coef, name, i == 0))
    lines[-1] += " " + "".join(parts) if parts else " 0 " + lp.variables[0].name
    lines.append("Subject To")
    for i, con in enumerate(lp.constraints):
        expr = "".join(term(coef, name, j == 0)
                       for j, (name, coef) in enumerate(sorted(con.coeffs.items())))
        lines.append(f" c{i}: {expr} {con.relation} {con.rhs:.12g}")
    lines.append("Bounds")
    for v in lp.variables:
        ub = "+inf" if v.ub is None else f"{v.ub:.12g}"
        lines.append(f" {v.lb:.12g} <= {v.name} <= {ub}")
    lines.append("End")
    atomic_write(path, "\n".join(lines) + "\n")
