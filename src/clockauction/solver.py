"""Deterministic LP/MIP solving.

The built-in path is a dense two-phase simplex with Bland's rule plus a
depth-first branch-and-bound for binary variables: no external solver in the
loop, so identical inputs give identical outputs byte for byte.  It solves the
bidder MIPs; a "highs" backend, HiGHS through scipy.optimize.milp without
integrality, serves the valuation LPs through the same interface and is also
deterministic for fixed inputs.  `_compile` is the one walk over an LP's
names: it validates them and gives the rows as sparse triplets, which the
simplex scatters into its tableau and the highs backend signs and orders as
linprog would.  `solve_mip(lp, binaries)` compiles once and its nodes share it.
Inside `phase1_memo()` phase 1 of the simplex runs once per distinct
constraint system: it reads only the constraint rows, never the objective.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
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
    # `_compile` of the LP, set on the nodes of `solve_mip`, which share
    # their MIP's; None compiles at each solve
    _arrays: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None) -> str:
        self.variables.append(Variable(name, lb, ub))
        return name

    def add_constraint(self, coeffs: dict[str, float], relation: str, rhs: float) -> None:
        self.constraints.append(Constraint(coeffs, relation, rhs))

@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded
    values: dict[str, float]
    objective_value: float | None

    def __getitem__(self, name: str) -> float:
        return self.values[name]


# ---------------------------------------------------------------------------
# built-in two-phase simplex (Bland's rule)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Scale `row` to a unit entry at `col`, then clear `col` from every other
    row with a nonzero entry there."""
    T[row, :] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = (factors != 0.0).nonzero()[0]
    T[rows, :] -= factors[rows, None] * T[row, :]


def _simplex_phase(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Run Bland-rule pivots on tableau T in place; last row is the objective
    (minimize), last column the rhs. Returns 'optimal' or 'unbounded'."""
    m = T.shape[0] - 1
    while True:
        improving = (T[-1, :ncols] < -PIVOT_TOL).nonzero()[0]
        if not improving.size:
            return "optimal"
        enter = int(improving[0])  # Bland: the lowest improving column
        # ratio test over the rows whose entry exceeds PIVOT_TOL, in row order;
        # a ratio within 1e-12 of the best goes to the smaller basis index (Bland)
        rows = (T[:m, enter] > PIVOT_TOL).nonzero()[0].tolist()
        if not rows:
            return "unbounded"
        ratios = (T[rows, -1] / T[rows, enter]).tolist()
        leave, best = rows[0], ratios[0]
        for i, ratio in zip(rows, ratios):
            if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12
                                        and basis[i] < basis[leave]):
                leave, best = i, ratio
        _pivot(T, leave, enter)
        basis[leave] = enter


def _phase1(T: np.ndarray, basis: list[int], arts: list[int], first_art: int) -> bool:
    """Phase 1 in place: minimize the sum of the artificials, then drive them
    out of the basis where possible and zero their columns.  False when the
    rows are infeasible."""
    m, total = len(basis), T.shape[1] - 1
    tol = 1e-7 * max(1.0, T[:m, -1].max())
    T[-1, first_art:total] = 1.0
    for i in arts:
        T[-1, :] -= T[i, :]
    status = _simplex_phase(T, basis, total)
    if status == "unbounded":  # cannot happen for phase 1
        raise SolverError("phase-1 unbounded")
    if -T[-1, -1] > tol:
        return False
    for i in range(m):
        if basis[i] >= first_art:
            cols = np.flatnonzero(np.abs(T[i, :first_art]) > PIVOT_TOL)
            if cols.size:
                _pivot(T, i, int(cols[0]))
                basis[i] = int(cols[0])
    # forbid artificials from re-entering
    T[:m, first_art:total] = 0.0
    return True


# phase-1 results of the current run, None outside `phase1_memo()`
PHASE1: ContextVar[dict | None] = ContextVar("phase1", default=None)


@contextmanager
def phase1_memo():
    """Keep phase-1 results for the block: a later LP whose constraint rows
    match bit for bit starts phase 2 from the stored tableau and basis."""
    token = PHASE1.set({})
    try:
        yield
    finally:
        PHASE1.reset(token)


def _phase1_memoized(T: np.ndarray, basis: list[int], arts: list[int], n: int,
                     first_art: int) -> bool:
    """`_phase1`, served from PHASE1 when it is set.  Phase 1 reads only the
    constraint rows T[:m], so the key is the shape, `n`, `first_art` and the
    positions and bits of the entries of T[:m] other than +0.0; the value is
    None (infeasible) or the same sparse form of T[:m] after phase 1, plus
    the basis.  A hit leaves T[:m] and the basis as `_phase1` would."""
    memo = PHASE1.get()
    if memo is None:
        return _phase1(T, basis, arts, first_art)
    bits = T[:-1].view(np.uint64).reshape(-1)  # a view: writes reach T

    def sparse():
        where = np.flatnonzero(bits)
        return where, bits[where]

    where, values = sparse()
    key = (T.shape, n, first_art, where.tobytes(), values.tobytes())
    if key not in memo:
        memo[key] = (*sparse(), basis.copy()) if _phase1(T, basis, arts, first_art) else None
    elif memo[key] is not None:
        where, values, solved = memo[key]
        bits[:] = 0
        bits[where] = values
        basis[:] = solved
    return memo[key] is not None


def _compile(lp: LinearProgram) -> tuple:
    """The one walk over the names of `lp` before a solve.  Raises
    ValidationError on a repeated or unknown variable name; else returns the
    constraints in order as sparse triplets (indptr, indices, data), their
    right-hand sides and relations, and the cost vector."""
    index = {v.name: i for i, v in enumerate(lp.variables)}
    if len(index) != len(lp.variables):
        raise ValidationError("duplicate variable names")
    c = np.zeros(len(index))
    for name, coef in lp.objective.items():
        if name not in index:
            raise ValidationError(f"objective references unknown variable {name!r}")
        c[index[name]] += coef
    indptr, indices, data = [0], [], []
    try:
        for i, con in enumerate(lp.constraints):
            indices += map(index.__getitem__, con.coeffs)
            data += con.coeffs.values()
            indptr.append(len(indices))
    except KeyError as exc:
        raise ValidationError(
            f"constraint {i} references unknown variable {exc.args[0]!r}") from None
    return (np.array(indptr), np.array(indices, dtype=np.intp), np.array(data, dtype=float),
            [con.rhs for con in lp.constraints],
            [con.relation for con in lp.constraints], c)


def _solve_lp_builtin(lp: LinearProgram) -> Solution:
    """Two-phase simplex over y = x - lb >= 0.  Each constraint and each finite
    upper bound is one (row, relation, rhs), negated with its relation flipped
    when the rhs is negative; slack then artificial columns follow in row order."""
    indptr, indices, data, rhs, relations, c = lp._arrays or _compile(lp)
    n = len(lp.variables)
    lbs = np.array([v.lb for v in lp.variables], dtype=float)
    if not np.all(np.isfinite(lbs)):
        raise ValidationError("variables need finite lower bounds")

    # rows: the constraints, then y_i <= ub_i - lb_i for each finite upper bound
    bounded = [(i, v.ub - v.lb) for i, v in enumerate(lp.variables) if v.ub is not None]
    k = len(rhs)
    m = k + len(bounded)
    A = np.zeros((m, n))
    A[np.arange(k).repeat(np.diff(indptr)), indices] += data
    b = np.zeros(m)
    for r in range(k):
        b[r] = rhs[r] - A[r] @ lbs
    A[range(k, m), [i for i, _ in bounded]] = 1.0
    b[k:] = [width for _, width in bounded]
    rels = relations + [LE] * len(bounded)
    for r in np.flatnonzero(b < 0).tolist():
        A[r], b[r], rels[r] = -A[r], -b[r], {LE: GE, GE: LE, EQ: EQ}[rels[r]]

    # columns: structural | slack/surplus | artificial; <= rows start feasible
    # on their slack, the others on an artificial
    slacks = [i for i, rel in enumerate(rels) if rel != EQ]
    arts = [i for i, rel in enumerate(rels) if rel != LE]
    first_art = n + len(slacks)
    total = first_art + len(arts)
    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[slacks, range(n, first_art)] = [1.0 if rels[i] == LE else -1.0 for i in slacks]
    T[arts, range(first_art, total)] = 1.0
    basis = [0] * m
    for col, i in enumerate(slacks, n):
        basis[i] = col
    for col, i in enumerate(arts, first_art):
        basis[i] = col

    if arts and not _phase1_memoized(T, basis, arts, n, first_art):
        return Solution("infeasible", {}, None)

    # phase 2: price out the basic columns.  Each is a unit column, so its
    # factor is its cost; subtract.reduce folds the rows in order, the same
    # arithmetic as one row at a time
    T[-1, :] = 0.0
    T[-1, :n] = c
    factors = T[-1, basis]
    priced = np.flatnonzero(factors)
    T[-1, :] = np.subtract.reduce(np.vstack([T[-1], factors[priced, None] * T[priced]]), axis=0)
    status = _simplex_phase(T, basis, total)
    if status == "unbounded":
        return Solution("unbounded", {}, None)

    y = np.zeros(total)
    y[basis] = T[:m, -1]
    x = y[:n] + lbs
    values = dict(zip([v.name for v in lp.variables], x.tolist()))
    return Solution("optimal", values, float(c @ y[:n] + c @ lbs))


# ---------------------------------------------------------------------------
# highs backend


def _solve_lp_highs(lp: LinearProgram) -> Solution:
    """HiGHS through scipy.optimize.milp without integrality, on the rows in
    linprog's order: the <= rows and the negated >= rows as they come, then
    the = rows."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_array

    indptr, indices, data, rhs, relations, c = _compile(lp)
    sign = np.array([-1.0 if rel == GE else 1.0 for rel in relations])
    eq = np.array([rel == EQ for rel in relations], dtype=bool)
    lengths = np.diff(indptr)
    rows = np.argsort(eq, kind="stable")  # the = rows last, each part in order
    entries = np.argsort(np.repeat(eq, lengths), kind="stable")  # and their entries
    A = csr_array(((data * np.repeat(sign, lengths))[entries], indices[entries],
                   np.concatenate([[0], np.cumsum(lengths[rows])])), shape=(len(rhs), len(c)))
    upper = (sign * np.array(rhs, dtype=float))[rows]
    k = len(relations) - relations.count(EQ)
    lower = np.concatenate([np.full(k, -np.inf), upper[k:]])
    lb = np.array([v.lb for v in lp.variables], dtype=float)
    ub = np.array([np.inf if v.ub is None else v.ub for v in lp.variables], dtype=float)

    res = milp(c, bounds=Bounds(lb, ub), constraints=LinearConstraint(A, lower, upper))
    if res.status == 2:
        return Solution("infeasible", {}, None)
    if res.status == 3:
        return Solution("unbounded", {}, None)
    if res.status != 0:
        raise SolverError(f"highs failed: {res.message}")
    # linprog's check of the point HiGHS returns, which milp does not make
    tol, x = 10 * np.sqrt(1e-9), res.x
    excess = A @ x - upper
    if not (np.all(excess[:k] <= tol) and np.all(np.abs(excess[k:]) <= tol)
            and np.all(x >= lb - tol) and np.all(x <= ub + tol) and np.isfinite(res.fun)):
        raise SolverError("highs returned a point outside the constraints")
    return Solution("optimal", dict(zip([v.name for v in lp.variables], x.tolist())),
                    float(res.fun))


# ---------------------------------------------------------------------------
# public interface


def solve_lp(lp: LinearProgram, backend: str = "builtin") -> Solution:
    """Solve a minimization LP. backend: 'builtin' (reference) or 'highs'."""
    if backend == "builtin":
        return _solve_lp_builtin(lp)
    if backend == "highs":
        return _solve_lp_highs(lp)
    raise ValidationError(f"unknown backend {backend!r}")


def check_feasible(lp: LinearProgram, values: dict[str, float]) -> list[int]:
    """Indices of constraints violated beyond FEAS_TOL (rows scaled to unit max coefficient)."""
    bad = []
    for i, con in enumerate(lp.constraints):
        act = sum(coef * values[name] for name, coef in con.coeffs.items())
        scale = max([abs(v) for v in con.coeffs.values()] + [abs(con.rhs), 1.0])
        resid = (act - con.rhs) / scale
        if con.relation == LE and resid > FEAS_TOL:
            bad.append(i)
        elif con.relation == GE and resid < -FEAS_TOL:
            bad.append(i)
        elif con.relation == EQ and abs(resid) > FEAS_TOL:
            bad.append(i)
    return bad


def solve_mip(lp: LinearProgram, binaries: list[str]) -> Solution:
    """Depth-first branch and bound over the `binaries` of `lp`, variables
    with bounds [0, 1] (built-in simplex).

    Branch order: lowest variable index first, 0-branch explored first; the
    first incumbent found at the optimal value wins, which makes the result
    deterministic.
    """
    arrays = _compile(lp)
    position = {v.name: i for i, v in enumerate(lp.variables)}
    for name in binaries:
        if name not in position:
            raise ValidationError(f"unknown binary variable {name!r}")
        if lp.variables[position[name]] != Variable(name, 0.0, 1.0):
            raise ValidationError(f"binary variable {name!r} must have bounds [0, 1]")
    binary = set(binaries)
    binaries = [v.name for v in lp.variables if v.name in binary]
    best = Solution("infeasible", {}, None)

    def recurse(variables: list[Variable]):
        """Solve the node whose variables are `variables`: the MIP's, with
        the binaries branched on so far fixed."""
        nonlocal best
        node = LinearProgram(variables, lp.objective, lp.constraints)
        node._arrays = arrays
        sol = solve_lp(node)
        if sol.status == "infeasible":
            return
        if sol.status == "unbounded":
            raise SolverError("MIP relaxation unbounded")
        if best.objective_value is not None and sol.objective_value >= best.objective_value - 1e-9:
            return
        frac = next((name for name in binaries
                     if abs(sol[name] - round(sol[name])) > INT_TOL), None)
        if frac is None:
            best = Solution("optimal", {**sol.values, **{name: float(round(sol[name]))
                                                         for name in binaries}},
                            sol.objective_value)
            return
        for branch in (0.0, 1.0):
            child = list(variables)
            child[position[frac]] = Variable(frac, branch, branch)
            recurse(child)

    recurse(lp.variables)
    return best


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
