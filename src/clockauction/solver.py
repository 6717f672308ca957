"""Deterministic LP/MIP solving.

The built-in path is a dense two-phase simplex with Bland's rule plus a
depth-first branch-and-bound for binary variables: no external solver in the
loop, so identical inputs give identical outputs byte for byte.  It solves the
bidder MIPs; a "highs" backend serves the valuation LPs through the same
interface and is also deterministic for fixed inputs.  It hands each LP
straight to SciPy's bundled HiGHS bindings, the model scipy.optimize.milp
would build without integrality.  It loads that one extension module from
SciPy's directory at the first solve, without importing scipy.optimize,
whose import would cost more than the solves of a whole `estimate`
(`_highspy`).  It solves each LP on one HiGHS instance per thread, made at
the thread's first solve; passModel replaces the model and the last solve's
state, and a test checks that a reused instance answers as a fresh one.

Every LP is a `LinearProgram`: named columns with bounds and costs, and its
constraints as sparse triplets (`Rows`), added a row at a time or, as in
estimation and the bidder oracle's MIPs, handed over whole.  The simplex
copies the rows into its tableau as one dense block, the highs backend signs
and orders them as linprog would, and both refuse non-finite input.  LPs
share what they do not change: the nodes of `solve_mip(lp, binaries)`
differ from their MIP only in the bounds, and a MIP re-priced at new costs
shares its rows, which keep the simplex's phase-1 results by bounds
(`Rows.phase1`), since phase 1 never reads the costs.  Given the exact
optimum of each node `solve_mip` skips the nodes that cannot hold the MIP's
optimum, with the same result.
"""

from __future__ import annotations

import copy
import functools
import importlib.machinery
import importlib.util
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

FEAS_TOL = 1e-6   # on row activity after scaling rows to unit max coefficient
PIVOT_TOL = 1e-9
INT_TOL = 1e-7
HIGHS_TOL = 10 * math.sqrt(1e-9)  # linprog's check of a HiGHS point

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


@dataclass(eq=False)
class Rows:
    """An LP's constraints, in order: sparse triplets (indptr, indices, data)
    over `width` variable columns, their right-hand sides and relations.
    Their arrays and lists never change, so LPs share them; an LP that adds
    a row or a column makes new `Rows`.  `dense` is the triplets scattered
    into a read-only matrix at first use, which each simplex solve copies,
    and `phase1` the simplex's phase-1 results over these rows, by bounds
    (`_phase1_memoized`)."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    rhs: list[float]
    relations: list[str]
    width: int
    phase1: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def integer_weight(self) -> float | None:
        """The sum of the coefficients' magnitudes when every coefficient is an
        integer, else None."""
        integral = np.array_equal(self.data, np.rint(self.data))
        return float(np.abs(self.data).sum()) if integral else None

    @functools.cached_property
    def dense(self) -> np.ndarray:
        A = np.zeros((len(self.rhs), self.width))
        A[np.arange(len(self.rhs)).repeat(np.diff(self.indptr)), self.indices] += self.data
        A.flags.writeable = False
        return A

    @functools.cached_property
    def nonfinite(self) -> str | None:
        """'coefficient' or 'right-hand side', the first part of the rows
        that holds a value that is not finite; None when all are."""
        if not np.isfinite(self.data).all():
            return "coefficient"
        return None if np.isfinite(self.rhs).all() else "right-hand side"


class _View(Sequence):
    """A read-only sequence of `n` items, each made by `item(i)` at access."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int):
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return self._item(i % self._n)


class LinearProgram:
    """Minimization LP over the columns `names`, with bounds `lb` <= x <= `ub`
    (+inf for none) and costs `costs`, and its constraint `rows`.  Made
    whole from names, costs and rows (bounds 0 and +inf), or a column and a
    row at a time by `add_variable` and `add_constraint`, which reject a
    repeated or unknown name.  `objective` is the costs by name.  The LP
    replaces its lists and rows rather than change them, so `copy.copy`
    gives an LP that shares them all, ready to take new bounds or a new
    objective.  `variables` and `constraints` are views, each item made at
    access, for `write_lp_format` and for checks; `len` of either is free."""

    def __init__(self, names: Sequence[str] = (), costs: Sequence[float] | None = None,
                 rows: Rows | None = None):
        self.names = list(names)
        self._index = {name: i for i, name in enumerate(self.names)}
        if len(self._index) < len(self.names):
            raise ValidationError("duplicate variable names")
        n = len(self.names)
        self.costs = [0.0] * n if costs is None else costs
        self.lb, self.ub = [0.0] * n, [math.inf] * n
        self.rows = rows if rows is not None else Rows(
            np.zeros(1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0), [], [], n)

    def add_variable(self, name: str, lb: float = 0.0, ub: float | None = None) -> str:
        if name in self._index:
            raise ValidationError("duplicate variable names")
        self._index = {**self._index, name: len(self.names)}
        self.names = [*self.names, name]
        self.costs = [*self.costs, 0.0]
        self.lb = [*self.lb, float(lb)]
        self.ub = [*self.ub, math.inf if ub is None else float(ub)]
        rows = self.rows
        self.rows = Rows(rows.indptr, rows.indices, rows.data, rows.rhs, rows.relations,
                         len(self.names))
        return name

    def add_constraint(self, coeffs: dict[str, float], relation: str, rhs: float) -> None:
        if relation not in (LE, GE, EQ):
            raise ValidationError(f"bad relation {relation!r}")
        rows = self.rows
        try:
            columns = np.array([self._index[name] for name in coeffs], dtype=np.intp)
        except KeyError as exc:
            raise ValidationError(f"constraint {len(rows.rhs)} references unknown "
                                  f"variable {exc.args[0]!r}") from None
        self.rows = Rows(np.append(rows.indptr, len(rows.indices) + len(columns)),
                         np.concatenate((rows.indices, columns)),
                         np.concatenate((rows.data, np.fromiter(coeffs.values(), float))),
                         [*rows.rhs, float(rhs)], [*rows.relations, relation], rows.width)

    @property
    def objective(self) -> dict[str, float]:
        """The costs by name.  Setting it makes new costs, 0.0 plus each
        given coefficient and 0.0 elsewhere."""
        return dict(zip(self.names, self.costs))

    @objective.setter
    def objective(self, objective: dict[str, float]) -> None:
        costs = [0.0] * len(self.names)
        for name, coef in objective.items():
            if name not in self._index:
                raise ValidationError(f"objective references unknown variable {name!r}")
            costs[self._index[name]] += coef
        self.costs = costs

    @property
    def variables(self) -> Sequence[Variable]:
        return _View(len(self.names), lambda i: Variable(
            self.names[i], self.lb[i], None if self.ub[i] == math.inf else self.ub[i]))

    @property
    def constraints(self) -> Sequence[Constraint]:
        rows = self.rows

        def constraint(i):
            span = slice(rows.indptr[i], rows.indptr[i + 1])
            return Constraint(dict(zip([self.names[k] for k in rows.indices[span].tolist()],
                                       rows.data[span].tolist())),
                              rows.relations[i], rows.rhs[i])
        return _View(len(rows.rhs), constraint)


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
    pivot = T[row]
    pivot /= pivot[col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    rows = factors.nonzero()[0]
    T[rows] -= factors[rows, None] * pivot


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


def _phase1_memoized(T: np.ndarray, basis: list[int], arts: list[int], first_art: int,
                     memo: dict, bounds: tuple[bytes, bytes]) -> bool:
    """`_phase1`, kept in `memo`, the phase-1 memo of the LP's rows, under
    the bits of its `bounds` (lb, ub): the rows and the bounds fix T[:m],
    all that phase 1 reads.  The value is None (infeasible) or the positions
    and bits of the entries of T[:m] other than +0.0 after phase 1, plus the
    basis.  A hit leaves T[:m] and the basis as `_phase1` would."""
    bits = T[:-1].view(np.uint64).reshape(-1)  # a view: writes reach T
    if bounds not in memo:
        memo[bounds] = None
        if _phase1(T, basis, arts, first_art):
            where = np.flatnonzero(bits)
            memo[bounds] = where, bits[where], basis.copy()
    elif memo[bounds] is not None:
        where, values, solved = memo[bounds]
        bits[:] = 0
        bits[where] = values
        basis[:] = solved
    return memo[bounds] is not None


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
    """Two-phase simplex over y = x - lb >= 0.  Each constraint and each finite
    upper bound is one (row, relation, rhs), negated with its relation flipped
    when the rhs is negative; slack then artificial columns follow in row order."""
    c, lbs, ubs = _columns(lp)
    rows, n = lp.rows, len(c)

    # rows: the constraints, then y_i <= ub_i - lb_i for each finite upper bound
    bounded = np.flatnonzero(ubs < np.inf)
    k = len(rows.rhs)
    m = k + len(bounded)
    A = np.zeros((m, n))
    A[:k] = rows.dense
    b = np.zeros(m)
    weight = rows.integer_weight
    if weight is not None and np.array_equal(lbs, np.rint(lbs)) and \
            weight * np.abs(lbs).max(initial=0.0) < 2**53:
        # integer rows and bounds whose products and partial sums stay below
        # 2**53 sum exactly in any order, so one matrix-vector product gives
        # the bits of one dot product per row.  Every oracle MIP row and bound
        # is such: one-hot rows, points * quantities, +-1 links, 0/1 bounds
        b[:k] = rows.rhs - A[:k] @ lbs
    else:
        for r in range(k):
            b[r] = rows.rhs[r] - A[r] @ lbs
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

    if arts and not _phase1_memoized(T, basis, arts, first_art, rows.phase1,
                                     (lbs.tobytes(), ubs.tobytes())):
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
    """HiGHS on the rows in linprog's order: the <= rows and the negated >= rows
    as they come, then the = rows; rows that are all >= are only negated.  The
    model is the one milp builds for an LP: column-wise, each column's entries
    in row order as SciPy's CSR-to-CSC copy leaves them, every column
    continuous.  It is solved on this thread's instance; a model HiGHS
    refuses is a SolverError."""
    core = _highspy()
    rows = lp.rows
    c, lb, ub = _columns(lp)
    relations, m, n = rows.relations, len(rows.rhs), len(c)
    k = m - relations.count(EQ)
    lengths = np.diff(rows.indptr)
    if relations.count(GE) == m:
        data, indices = -rows.data, rows.indices
        upper = -np.array(rows.rhs, dtype=float)
        lower = np.full(m, -np.inf)
        row = np.arange(m).repeat(lengths)
    else:
        sign = np.array([-1.0 if rel == GE else 1.0 for rel in relations])
        eq = np.array([rel == EQ for rel in relations], dtype=bool)
        order = np.argsort(eq, kind="stable")  # the = rows last, each part in order
        entries = np.argsort(np.repeat(eq, lengths), kind="stable")  # and their entries
        data = (rows.data * np.repeat(sign, lengths))[entries]
        indices = rows.indices[entries]
        upper = (sign * np.array(rows.rhs, dtype=float))[order]
        lower = np.concatenate([np.full(k, -np.inf), upper[k:]])
        row = np.arange(m).repeat(lengths[order])

    model = core.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = n
    model.num_row_ = model.a_matrix_.num_row_ = m
    model.a_matrix_.format_ = core.MatrixFormat.kColwise
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lb, ub
    model.row_lower_, model.row_upper_ = lower, upper
    by_column = np.argsort(indices, kind="stable")  # keeps row order within a column
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(indices, minlength=n), out=start[1:])
    model.a_matrix_.start_ = start
    model.a_matrix_.index_ = row[by_column]
    model.a_matrix_.value_ = data[by_column]
    model.integrality_ = [core.HighsVarType.kContinuous] * n

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
    # linprog's check of the point HiGHS returns
    x = np.array(highs.getSolution().col_value)
    fun = highs.getInfo().objective_function_value
    excess = np.bincount(row, weights=data * x[indices], minlength=m) - upper
    if not ((excess[:k] <= HIGHS_TOL).all() and (abs(excess[k:]) <= HIGHS_TOL).all()
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


def check_feasible(lp: LinearProgram, values: dict[str, float]) -> list[int]:
    """Indices of constraints violated beyond FEAS_TOL (rows scaled to unit max
    coefficient).  One sparse product A @ x over the rows gives each
    row's gap to its rhs, its entries summed in order as a loop over the row
    would; a scale is 1 or more, so only rows whose gap exceeds FEAS_TOL on
    the violating side are scaled and checked."""
    rows = lp.rows
    x = np.array([values[name] for name in lp.names], dtype=float)
    m = len(rows.rhs)
    row = np.arange(m).repeat(np.diff(rows.indptr))
    gap = np.bincount(row, weights=rows.data * x[rows.indices], minlength=m) - rows.rhs
    relations = rows.relations
    bad = []
    for i in sorted([i for i in np.flatnonzero(gap < -FEAS_TOL).tolist() if relations[i] != LE]
                    + [i for i in np.flatnonzero(gap > FEAS_TOL).tolist() if relations[i] != GE]):
        coeffs = np.abs(rows.data[rows.indptr[i]:rows.indptr[i + 1]])
        resid = gap[i] / max(coeffs.max(initial=0.0), abs(rows.rhs[i]), 1.0)
        if abs(resid) > FEAS_TOL:
            bad.append(i)
    return bad


def mip_margin(costs) -> float:
    """`solve_mip`'s margin for a MIP with these objective costs: 1e-6 * (1 +
    their 1-norm), ten times INT_TOL times the objective's weight."""
    return 1e-6 * (1.0 + float(np.abs(costs).sum()))


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
    margin is `mip_margin` of the costs, is skipped before its simplex
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
        margin = mip_margin(lp.costs)
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
