"""Deterministic LP/MIP solving.

The built-in path is a dense two-phase simplex with Bland's rule plus a
depth-first branch-and-bound for binary variables: no external solver in the
loop, so identical inputs give identical outputs byte for byte.  It solves the
bidder MIPs; a "highs" backend serves the valuation LPs through the same
interface and is also deterministic for fixed inputs.  It hands each LP
as written to SciPy's bundled HiGHS bindings, loading that one extension
module from SciPy's directory at the first solve, without importing
scipy.optimize, whose import would cost more than the solves of a whole
`estimate` (`_highspy`).  It solves each LP on one HiGHS instance per
thread, made at the thread's first solve; passModel replaces the model and
the last solve's state, and a test checks that a reused instance answers as
a fresh one.

Every LP is a `LinearProgram`: named columns with bounds and costs, and its
constraints as sparse triplets (`Rows`), handed over whole, as estimation
and the bidder oracle's MIPs make them.  The simplex scatters the triplets
into its tableau as one dense block, the highs backend passes their arrays
as they are, and both refuse non-finite input.  LPs share what they do not
change: the nodes of `solve_mip(lp, binaries)` differ from their MIP only
in the bounds, and a MIP re-priced at new costs shares its rows.  The rows keep, by bounds, the tableau and basis that
phase 2 starts from (`Rows.phase1`), since neither the build nor phase 1
reads the costs: a node met again builds no tableau and runs no phase 1,
and starts phase 2 from the same bits.  Given the exact optimum of each
node `solve_mip` skips the nodes that cannot hold the MIP's optimum, with
the same result.
"""

from __future__ import annotations

import copy
import functools
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import atomic_write
from .errors import SolverError, ValidationError

PIVOT_TOL = 1e-9
INT_TOL = 1e-7
# how far a HiGHS point may lie outside a row or a bound: linprog's tolerance,
# kept so that every point linprog accepted is still accepted
HIGHS_TOL = 10 * math.sqrt(1e-9)

LE, GE, EQ = "<=", ">=", "="


@dataclass(eq=False)
class Rows:
    """An LP's constraints, in order: sparse triplets (indptr, indices, data)
    over the LP's columns, their right-hand sides and relations.  Their
    arrays and lists never change, so LPs share them, also an LP that adds
    a column.  `phase1` is the memo of the simplex's starts over these
    rows, by bounds: the tableau and basis that phase 2 starts from, after
    phase 1, or None where phase 1 finds them infeasible (`_start`).  Its
    keys hold one bound per column, so LPs of different widths never share
    an entry.  The triplets may be given as lists; they are kept as arrays."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: list[float]
    relations: list[str]
    phase1: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        self.indptr = np.asarray(self.indptr, dtype=np.intp)
        self.indices = np.asarray(self.indices, dtype=np.intp)
        self.data = np.asarray(self.data, dtype=float)

    @functools.cached_property
    def nonfinite(self) -> str | None:
        """'coefficient' or 'right-hand side', the first part of the rows
        that holds a value that is not finite; None when all are."""
        if not np.isfinite(self.data).all():
            return "coefficient"
        return None if np.isfinite(self.rhs).all() else "right-hand side"


class LinearProgram:
    """Minimization LP over the columns `names`, with bounds `lb` <= x <= `ub`
    (+inf for none) and costs `costs`, and its constraint `rows`, made whole
    from names, costs and rows (bounds 0 and +inf); a repeated name is an
    error.  The LP replaces its lists and rows rather than change them, so
    `copy.copy` gives an LP that shares them all, ready to take new bounds
    or costs.

    The rest is kept only for `bench/`: its setup builds an LP a column at
    a time by `add_variable` and the `objective` setter, and its spans take
    the lengths of `variables` (the names) and `constraints` (the
    right-hand sides).  The next change to `bench/` deletes it."""

    def __init__(self, names: Sequence[str] = (), costs: Sequence[float] | None = None,
                 rows: Rows | None = None):
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) < len(self.names):
            raise ValidationError("duplicate variable names")
        n = len(self.names)
        self.costs = [0.0] * n if costs is None else costs
        self.lb, self.ub = [0.0] * n, [math.inf] * n
        self.rows = rows if rows is not None else Rows([0], [], [], [], [])

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None) -> str:
        if name in self._index:
            raise ValidationError("duplicate variable names")
        self._index = {**self._index, name: len(self.names)}
        self.names = [*self.names, name]
        self.costs = [*self.costs, 0.0]
        self.lb = [*self.lb, float(lb)]
        self.ub = [*self.ub, math.inf if ub is None else float(ub)]
        return name

    def _set_objective(self, objective: dict[str, float]) -> None:
        costs = [0.0] * len(self.names)
        for name, coef in objective.items():
            if name not in self._index:
                raise ValidationError(f"objective references unknown variable {name!r}")
            costs[self._index[name]] += coef
        self.costs = costs

    objective = property(fset=_set_objective, doc="""Setting it makes new costs,
        0.0 plus each coefficient given by name and 0.0 elsewhere.""")

    # bench/'s spans count the columns and the rows of each LP they see
    variables = property(lambda self: self.names)
    constraints = property(lambda self: self.rows.rhs)


@dataclass(frozen=True)
class Solution:
    status: str  # optimal | infeasible | unbounded
    values: dict[str, float]
    objective_value: float | None


# ---------------------------------------------------------------------------
# built-in two-phase simplex (Bland's rule)


def _pivot(T: np.ndarray, row: int, col: int) -> None:
    """Scale `row` to a unit entry at `col`, then clear `col` from every other
    row with a nonzero entry there: those rows are taken out, updated and
    put back, which `take` does in fewer steps than fancy indexing."""
    pivot = T[row]
    pivot /= pivot[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    cleared = T.take(rows, axis=0)
    cleared -= factors.take(rows)[:, None] * pivot
    T[rows] = cleared


def _simplex_phase(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Run Bland-rule pivots on tableau T in place; last row is the objective
    (minimize), last column the rhs. Returns 'optimal' or 'unbounded'."""
    m = T.shape[0] - 1
    if not ncols:
        return "optimal"
    costs, rhs = T[-1, :ncols], T[:m, -1]  # views, which the pivots update
    while True:
        improving = costs < -PIVOT_TOL
        enter = int(improving.argmax())  # Bland: the lowest improving column
        if not improving[enter]:
            return "optimal"
        # ratio test over the rows whose entry exceeds PIVOT_TOL, in row order;
        # a ratio within 1e-12 of the best goes to the smaller basis index (Bland)
        column = T[:m, enter]
        rows = (column > PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded"
        leave = int(rows[0])
        if rows.size > 1:
            ratios = (rhs[rows] / column[rows]).tolist()
            best = ratios[0]
            for i, ratio in zip(rows.tolist(), ratios):
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


def _tableau(rows: Rows, lbs: np.ndarray, ubs: np.ndarray
             ) -> tuple[np.ndarray, list[int], list[int], int]:
    """The simplex's starting tableau over y = x - lb >= 0, its basis, its
    artificial rows and its first artificial column.  Each constraint and
    each finite upper bound is one (row, relation, rhs), negated with its
    relation flipped when the rhs is negative; slack then artificial columns
    follow in row order.  The last row, the objective, is zero."""
    n = len(lbs)
    # rows: the constraints, then y_i <= ub_i - lb_i for each finite upper bound
    bounded = np.flatnonzero(ubs < np.inf)
    k = len(rows.rhs)
    m = k + len(bounded)
    A = np.zeros((m, n))
    A[np.arange(k).repeat(np.diff(rows.indptr)), rows.indices] += rows.data
    b = np.zeros(m)
    b[:k] = rows.rhs - A[:k] @ lbs
    A[range(k, m), bounded] = 1.0
    b[k:] = (ubs - lbs)[bounded]
    rels = rows.relations + [LE] * len(bounded)
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
    return T, basis, arts, first_art


def _start(rows: Rows, lbs: np.ndarray, ubs: np.ndarray) -> tuple[np.ndarray, list[int]] | None:
    """The tableau and basis that phase 2 starts from, its objective row
    zero: `_tableau` after `_phase1` where it has artificials; None when
    the rows are infeasible.  Kept in `rows.phase1` under the bits of the
    bounds (lb, ub), since the rows and the bounds fix all that the build
    and phase 1 read; the value is None or the positions and bits of the
    entries of T[:m] other than +0.0, the basis and the tableau's shape.  A
    hit scatters the bits into a zero tableau, the same bits as a miss."""
    key = (lbs.tobytes(), ubs.tobytes())
    memo = rows.phase1
    if key in memo:
        if memo[key] is None:
            return None
        where, values, basis, shape = memo[key]
        T = np.zeros(shape)
        T.reshape(-1).view(np.uint64)[where] = values  # a view: writes reach T
        return T, list(basis)
    T, basis, arts, first_art = _tableau(rows, lbs, ubs)
    memo[key] = None
    if arts and not _phase1(T, basis, arts, first_art):
        return None
    bits = T[:-1].reshape(-1).view(np.uint64)
    where = np.flatnonzero(bits)
    memo[key] = where, bits[where], tuple(basis), T.shape
    T[-1] = 0.0
    return T, basis


def _columns(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The costs and the lower and upper bounds of `lp` as arrays.  A
    non-finite cost, coefficient, right-hand side or bound (but an upper
    bound of +inf) is a ValidationError; the rows are checked once."""
    c, lb, ub = (np.array(values, dtype=float) for values in (lp.costs, lp.lb, lp.ub))
    if not np.isfinite(c).all():
        raise ValidationError("LP has a non-finite cost")
    if lp.rows.nonfinite:
        raise ValidationError(f"LP has a non-finite {lp.rows.nonfinite}")
    if not (np.isfinite(lb) & (ub > -np.inf)).all():
        raise ValidationError("LP has a non-finite bound")
    return c, lb, ub


def _solve_lp_builtin(lp: LinearProgram) -> Solution:
    """Two-phase simplex: phase 2 from the memoized start (`_start`)."""
    c, lbs, ubs = _columns(lp)
    start = _start(lp.rows, lbs, ubs)
    if start is None:
        return Solution("infeasible", {}, None)
    T, basis = start
    n, m, total = len(c), len(basis), T.shape[1] - 1

    # phase 2: price out the basic columns.  Each is a unit column, so its
    # factor is its cost; subtract.reduce folds the rows in order, the same
    # arithmetic as one row at a time
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
    values = dict(zip(lp.names, x.tolist()))
    return Solution("optimal", values, float(c @ y[:n] + c @ lbs))


# ---------------------------------------------------------------------------
# highs backend


# this thread's HiGHS instance, made at its first solve
_HIGHS = threading.local()
# the extension's own name, under which scipy.optimize imports it
_HIGHSPY = "scipy.optimize._highspy._core"


def _highspy():
    """SciPy's bundled HiGHS bindings, the extension module that
    scipy.optimize.milp calls, loaded from its file in SciPy's directory:
    importing it through scipy.optimize would first load all of that package
    (with scipy.linalg, scipy.sparse and scipy.special), which costs more
    than a whole `estimate`'s solves.  It goes into sys.modules under its own
    name, so a later import of scipy.optimize reuses it, as this reuses one
    that scipy.optimize loaded, and pybind11 registers HiGHS's types once."""
    core = sys.modules.get(_HIGHSPY, False)
    if core is False:  # not loaded yet
        core = None
        scipy = importlib.util.find_spec("scipy")
        paths = [os.path.join(root, "optimize", "_highspy", "_core" + suffix)
                 for root in (scipy and scipy.submodule_search_locations) or ()
                 for suffix in importlib.machinery.EXTENSION_SUFFIXES]
        path = next(filter(os.path.isfile, paths), None)
        if path is not None:
            spec = importlib.util.spec_from_file_location(_HIGHSPY, path)
            core = sys.modules[_HIGHSPY] = importlib.util.module_from_spec(spec)
            try:
                spec.loader.exec_module(core)
            except BaseException:
                del sys.modules[_HIGHSPY]
                raise
    if core is None:
        raise SolverError("the highs backend needs scipy>=1.15, the first release "
                          f"with {_HIGHSPY}")
    return core


def _highs(core):
    """This thread's HiGHS instance, made at its first call with milp's only
    option, log_to_console=False.  Each solve's passModel replaces the model
    and clears the last solve's basis, solution and status."""
    highs = getattr(_HIGHS, "instance", None)
    if highs is None:
        highs = core._Highs()
        options = core.HighsOptions()
        options.log_to_console = False
        if highs.passOptions(options) == core.HighsStatus.kError:
            raise SolverError("highs rejected its options")
        _HIGHS.instance = highs
    return highs


def _solve_lp_highs(lp: LinearProgram) -> Solution:
    """HiGHS on the LP as written: the rows row-wise, in their order, each
    with the bounds its relation gives ([rhs, +inf] for >=, [-inf, rhs] for
    <= and [rhs, rhs] for =), every column continuous.  It is solved on
    this thread's instance; a model HiGHS refuses is a SolverError, and so
    is a point outside the rows or bounds by more than HIGHS_TOL."""
    core = _highspy()
    rows = lp.rows
    c, lb, ub = _columns(lp)
    rhs = np.array(rows.rhs, dtype=float)
    lower = np.where([rel == LE for rel in rows.relations], -np.inf, rhs)
    upper = np.where([rel == GE for rel in rows.relations], np.inf, rhs)

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = len(c)
    model.num_row_ = model.a_matrix_.num_row_ = len(rows.rhs)
    model.a_matrix_.format_ = core.MatrixFormat.kRowwise
    model.a_matrix_.start_, model.a_matrix_.index_, model.a_matrix_.value_ = \
        rows.indptr, rows.indices, rows.data
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_, model.row_upper_ = lower, upper

    highs = _highs(core)
    if highs.passModel(model) == core.HighsStatus.kError:
        raise SolverError("highs refused the LP")
    highs.run()
    status = highs.getModelStatus()
    if status == core.HighsModelStatus.kInfeasible:
        return Solution("infeasible", {}, None)
    if status == core.HighsModelStatus.kUnbounded:
        return Solution("unbounded", {}, None)
    if status != core.HighsModelStatus.kOptimal:
        raise SolverError(f"highs failed: {highs.modelStatusToString(status)}")
    x = np.array(highs.getSolution().col_value)
    fun = highs.getInfo().objective_function_value
    # each row's activity, its entries summed in row order
    activity = np.bincount(np.arange(len(rhs)).repeat(np.diff(rows.indptr)),
                           weights=rows.data * x[rows.indices], minlength=len(rhs))
    if not ((activity - lower >= -HIGHS_TOL).all() and (activity - upper <= HIGHS_TOL).all()
            and (x >= lb - HIGHS_TOL).all() and (x <= ub + HIGHS_TOL).all()
            and math.isfinite(fun)):
        raise SolverError("highs returned a point outside the constraints")
    return Solution("optimal", dict(zip(lp.names, x.tolist())), float(fun))


# ---------------------------------------------------------------------------
# public interface


def solve_lp(lp: LinearProgram, backend: str = "builtin") -> Solution:
    """Solve a minimization LP. backend: 'builtin' (reference) or 'highs'."""
    if backend == "builtin":
        return _solve_lp_builtin(lp)
    if backend == "highs":
        return _solve_lp_highs(lp)
    raise ValidationError(f"unknown backend {backend!r}")


def solve_mip(lp: LinearProgram, binaries: list[str],
              exact: Callable[[dict[str, float]], float] | None = None) -> Solution:
    """Depth-first branch and bound over the `binaries` of `lp`, variables
    with bounds [0, 1] (built-in simplex).

    Branch order: lowest variable index first, 0-branch explored first; the
    first incumbent found at the optimal value wins, which makes the result
    deterministic.

    `exact(fixed)`, if given, is the exact integer optimum of the node whose
    binaries `fixed` are fixed ({name: 0.0 | 1.0}), inf when it has no
    integer point.  A node with `exact(fixed) > exact({}) + margin`, where
    margin is 1e-6 * (1 + the 1-norm of the objective costs), ten times
    INT_TOL times the objective's weight, is skipped before its simplex
    solve.  The result is the one found without `exact`: a skipped subtree
    holds only points worse than the optimum by more than the margin, and a
    node accepted as integral within INT_TOL is that close to one of its
    integer points, so any incumbent the subtree could set is replaced later
    and can never prune a node that holds a near-optimal point.  So every near-optimal
    incumbent is found at the same position in the search, from the same
    LP, with or without `exact`.  After the search the two optima must
    agree within the margin, or both be infeasible; else SolverError.
    """
    position = lp._index
    for name in binaries:
        if name not in position:
            raise ValidationError(f"unknown binary variable {name!r}")
        if (lp.lb[position[name]], lp.ub[position[name]]) != (0.0, 1.0):
            raise ValidationError(f"binary variable {name!r} must have bounds [0, 1]")
    binary = set(binaries)
    binaries = [name for name in lp.names if name in binary]
    best = Solution("infeasible", {}, None)
    if exact is not None:
        bound = exact({})
        margin = 1e-6 * (1.0 + float(np.abs(lp.costs).sum()))
        cutoff = bound + margin

    def recurse(lb: list[float], ub: list[float], fixed: dict[str, float]):
        """Solve the node with bounds `lb` and `ub`: the MIP's, with the
        binaries branched on so far fixed as in `fixed`."""
        nonlocal best
        if fixed and exact is not None and exact(fixed) > cutoff:
            return
        node = copy.copy(lp)
        node.lb, node.ub = lb, ub
        sol = solve_lp(node)
        if sol.status == "infeasible":
            return
        if sol.status == "unbounded":
            raise SolverError("MIP relaxation unbounded")
        if best.objective_value is not None and sol.objective_value >= best.objective_value - 1e-9:
            return
        values = sol.values
        frac = next((name for name in binaries
                     if abs(values[name] - round(values[name])) > INT_TOL), None)
        if frac is None:
            best = Solution("optimal", {**values, **{name: float(round(values[name]))
                                                     for name in binaries}},
                            sol.objective_value)
            return
        for branch in (0.0, 1.0):
            child_lb, child_ub = list(lb), list(ub)
            child_lb[position[frac]] = child_ub[position[frac]] = branch
            recurse(child_lb, child_ub, {**fixed, frac: branch})

    recurse(lp.lb, lp.ub, {})
    if exact is not None:
        found = math.inf if best.objective_value is None else best.objective_value
        if math.isinf(found) != math.isinf(bound) or abs(found - bound) > margin:
            raise SolverError(f"branch and bound gives {found!r}, the exact optimum {bound!r}")
    return best


def write_lp_format(lp: LinearProgram, path) -> None:
    """Dump in CPLEX LP text format for cross-checking with external solvers.
    Column k is written `xk`, as LP readers refuse the `:` and `/` of the
    LP's names; in the bounds, a comment line `\\ xk "name"` before each
    column's bounds gives its name, JSON-quoted.  The objective lists every
    column in order, so a reader numbers them as here, and each number is
    its `repr`, which reads back exactly."""
    def expr(columns, coefs) -> str:
        text = "".join(f" {'-' if c < 0 else '+'} {abs(float(c))!r} x{k}"
                       for k, c in zip(columns, coefs))
        return text[3:] if text.startswith(" + ") else text[1:] or "0 x0"

    rows = lp.rows
    lines = ["Minimize", " obj: " + expr(range(len(lp.names)), lp.costs), "Subject To"]
    for i, (rel, rhs) in enumerate(zip(rows.relations, rows.rhs)):
        span = slice(rows.indptr[i], rows.indptr[i + 1])
        lines.append(f" c{i}: {expr(rows.indices[span].tolist(), rows.data[span])} "
                     f"{rel} {float(rhs)!r}")
    lines.append("Bounds")
    for k, (name, lb, ub) in enumerate(zip(lp.names, lp.lb, lp.ub)):
        lines += [f"\\ x{k} {json.dumps(name)}",
                  f" {float(lb)!r} <= x{k} <= {'+inf' if ub == math.inf else repr(float(ub))}"]
    lines.append("End")
    atomic_write(path, "\n".join(lines) + "\n")
