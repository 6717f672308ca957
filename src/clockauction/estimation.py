"""Per-bidder lower-bound valuation recovery.

Valuations have two parts: a per-base complementarity value and per-product
marginal-value ladders with diminishing returns (the first ladder level is the
normalized zero baseline).  Given a smoothed log, we solve an LP that makes
the observed round-by-round choices as rational as possible: nonnegative
utility each round, marginal rationality against neighboring ladder levels,
and revealed preference against every eligible alternative variant, with
penalized slack.  Minimizing slack plus total base value yields the tightest
lower-bound valuations consistent with myopic, monotonic bidding.  The LP is
written straight into the sparse rows HiGHS reads (`solver.Rows`), with no
per-row dicts, handed to a `solver.LinearProgram` whole and solved with
HiGHS.
"""

from __future__ import annotations

import json
import operator
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .core import (MAX_CENTS, Bundle, PriceVector, ProductCatalog, cents, check_bidder_id,
                   eligibility_cost, finite_json, integer, number)
from .errors import SolverError, ValidationError
from .ingest import BundleBase, BundleSpace, CopyLadder, variant_keys
from .solver import GE, LinearProgram, Rows, Solution, solve_lp


@dataclass(frozen=True)
class ValuationModel:
    """A bidder's values in whole cents: each base value and marginal is a
    whole number of cents, and their total (every base value plus each
    ladder's top cumulative value) is below MAX_CENTS, so every sum of them
    that the oracles take is exact.  Each ladder level's cumulative value is
    summed once, here, in level order, so reading one is a lookup."""
    bidder_id: str
    base_values: dict[str, float]            # base_id -> cents
    marginals: dict[tuple[str, int], float]  # (product_id, ladder level) -> cents/unit

    def __post_init__(self):
        # the total in Python integers, so the 2**53 check is exact
        total = sum(cents(v, f"base value for {b}") for b, v in self.base_values.items())
        levels: dict[str, list[int]] = {}
        for (j, level) in self.marginals:
            levels.setdefault(j, []).append(level)
        # the ladders, as tuples so no caller can change them, and each level's
        # cumulative value, (product_id, level) -> cents, from one walk per ladder
        object.__setattr__(self, "_ladders", {j: tuple(sorted(lv)) for j, lv in levels.items()})
        object.__setattr__(self, "_cumulative", cumulative := {})
        for j, lv in self._ladders.items():
            if self.marginals[(j, lv[0])] != 0:
                raise ValidationError(f"first ladder level of {j} must be 0")
            cumulative[(j, lv[0])] = value = 0.0
            for prev, level in zip(lv, lv[1:]):
                v = self.marginals[(j, level)]
                whole = cents(v, f"marginal for ({j}, {level})")
                if prev != lv[0] and v > self.marginals[(j, prev)]:
                    raise ValidationError(f"diminishing returns violated for {j}")
                cumulative[(j, level)] = value = value + (level - prev) * v
                total += (level - prev) * whole
        if total >= MAX_CENTS:
            raise ValidationError(f"{self.bidder_id}: values total 2**53 cents or more")

    def ladder(self, product_id: str) -> tuple[int, ...]:
        levels = self._ladders.get(product_id)
        if levels is None:
            raise ValidationError(f"no ladder for product {product_id!r}")
        return levels

    def cumulative_value(self, product_id: str, quantity: int) -> float:
        """Sum of increment values up to `quantity` on the product's ladder."""
        value = self._cumulative.get((product_id, quantity))
        if value is None:
            self.ladder(product_id)
            raise ValidationError(f"quantity {quantity} off the ladder of {product_id!r}")
        return value


def bundle_value(model: ValuationModel, bundle: Bundle, base: BundleBase) -> float:
    """Base complementarity value plus cumulative marginal values (cents)."""
    if bundle.support() != base.support():
        raise ValidationError("bundle is not a variant of the given base")
    for j, q in bundle.quantities.items():
        if q < base.quantities[j]:
            raise ValidationError("bundle falls below its base quantity")
    value = model.base_values.get(base.base_id, 0.0)
    for j, q in bundle.quantities.items():
        value += model.cumulative_value(j, q)
    return value


def bundle_utility(model: ValuationModel, bundle: Bundle, base: BundleBase,
                   prices: PriceVector) -> float:
    if not bundle:
        return 0.0
    cost = sum(q * prices[j] for j, q in bundle.quantities.items())
    return bundle_value(model, bundle, base) - cost


def initial_eligibility(space: BundleSpace, catalog: ProductCatalog) -> int:
    """Eligibility cost of the bidder's maximal variant across bases."""
    return max((eligibility_cost({j: space.ladders[j].levels[-1] for j in base.quantities},
                                 catalog) for base in space.bases), default=0)


def reconstruct_eligibility(space: BundleSpace, catalog: ProductCatalog) -> dict[int, int]:
    """E^r series over the observed rounds under the 100% activity rule:
    next-round eligibility equals the eligibility cost of the current bid."""
    series = {}
    current = initial_eligibility(space, catalog)
    for rnd, (bundle, _) in sorted(space.observed.items()):
        series[rnd] = current
        current = min(current, eligibility_cost(bundle, catalog))
    return series


# ---------------------------------------------------------------------------
# LP construction


BLOCKS = ("positive_utility", "marginal_rationality", "revealed_preference",
          "diminishing_returns")


def _vb(base_id: str) -> str:
    return f"vb::{base_id}"


def _vm(product_id: str, level: int) -> str:
    return f"vm::{product_id}::{level}"


def _build(space: BundleSpace, start_prices: dict[int, PriceVector],
           eligibility: dict[int, int], catalog: ProductCatalog,
           mr_slack_weight: float | None = None) -> tuple[LinearProgram, list[int]]:
    """The valuation LP, written straight into its sparse rows (`Rows`), and
    per row the index of its block in BLOCKS.

    Every row is `>=`, and all but (d) say u(observed) - u(alternative) >= 0
    for the round's observed bundle; per round the alternatives are (a) the
    empty bundle, that is sitting out, (b) one ladder step on one product
    and (c) each eligible variant with a slack, and at the end come (d)
    diminishing returns.  A bundle's utility is its row of a table over the
    vb/vm columns (1.0 on its base, each ladder width up to its quantity)
    minus its cost at the round's prices, so a row is the difference of two
    table rows, over the columns where they differ (the observed bundle's,
    then the alternative's others), with right-hand side cost(observed) -
    cost(alternative).  One cache, keyed by (observed bundle, base,
    eligibility), holds each block of a round's rows; the rounds that share
    a key reuse it and add only their right-hand sides and slack names.
    Slack columns follow the fixed ones in row order.  Costs are integers
    below 2**53 cents, so a right-hand side is exact."""
    ladders, bases = space.ladders, space.bases
    products = sorted(ladders)
    names = [_vb(base.base_id) for base in bases]
    vm, pairs = [], []   # (product, level, width) per vm column; the (d) columns
    for j in products:
        levels = ladders[j].levels
        for k, (prev, level) in enumerate(zip(levels, levels[1:])):
            if k:
                pairs += (len(names) - 1, len(names))
            names.append(_vm(j, level))
            vm.append((j, level, float(level - prev)))
    nfix, n_d = len(names), len(pairs) // 2
    base_index = {base.base_id: i for i, base in enumerate(bases)}

    # per bundle: its utility coefficients, the columns where they are not
    # zero, and its quantities (one flat list); a variant's row is reused
    table, support, quantities, rows_of = [], [], [], {}

    def add(key: tuple, base: int | None) -> int:
        if (key, base) in rows_of:
            return rows_of[key, base]
        bundle = dict(key)
        row = [float(i == base) for i in range(len(bases))]
        row += [width if bundle.get(j, 0) >= level else 0.0 for j, level, width in vm]
        table.append(row)
        support.append([c for c, v in enumerate(row) if v])
        quantities.extend([bundle.get(j, 0) for j in products])
        rows_of[key, base] = len(table) - 1
        return len(table) - 1

    points = {j: catalog.get(j).eligibility_points for base in bases for j in base.quantities}
    variants = [(add(key, i), key, sum([points[j] * q for j, q in key]))
                for i, base in enumerate(bases) for key in variant_keys(base, ladders)]
    empty = add((), None)

    def entries(own: int, alt: int, kind: int, tag: tuple | None) -> tuple:
        """The row u(own) - u(alt): (alternative, block, columns, values,
        slack tag), its columns the observed bundle's, then the
        alternative's others, where the two utilities differ, and for a
        tagged row the slack column -1."""
        u, a = table[own], table[alt]
        columns = [c for c in support[own] if u[c] != a[c]] + \
            [c for c in support[alt] if not u[c]]
        values = [u[c] - a[c] for c in columns]
        if tag:
            columns, values = columns + [-1], values + [1.0]
        return alt, kind, columns, values, tag

    def block(key: tuple, base_id: str | None, limit: int) -> tuple[int, list]:
        """The observed bundle's table row, and the rows of a round that
        observes `key` on `base_id` with eligibility `limit`."""
        own, alternatives = empty, []
        if key:
            if base_id not in base_index:
                raise ValidationError(f"observed base {base_id!r} is not one of the bases")
            own = add(key, base_index[base_id])
            alternatives.append((empty, 0, None))
            for j, q in key:
                levels = ladders[j].levels
                k = ladders[j].index_of(q)
                for k2 in (k - 1, k + 1):
                    if 1 <= k2 <= len(levels):
                        t = add(tuple((i, levels[k2 - 1] if i == j else n) for i, n in key),
                                base_index[base_id])
                        alternatives.append((t, 1, None if mr_slack_weight is None
                                             else ("ms", f"{j}::{k2}")))
        eligible = [t for t, other, cost in variants if cost <= limit and other != key]
        alternatives += [(t, 2, ("sl", n)) for n, t in enumerate(eligible)]
        return own, [entries(own, *alternative) for alternative in alternatives]

    rounds = sorted(space.observed)
    blocks: dict[tuple, tuple] = {}
    chosen, prices = [], []
    for rnd in rounds:
        bundle, base_id = space.observed[rnd]
        vector = start_prices.get(rnd)
        if vector is None:
            raise ValidationError(f"no start prices for round {rnd}")
        if bundle and base_id is None:
            raise ValidationError(f"round {rnd}: observed bundle has no base")
        key = (bundle.key(), base_id, eligibility[rnd])
        if key not in blocks:
            blocks[key] = block(*key)
        chosen.append(blocks[key])
        prices.append(vector.prices)
    try:
        prices = [vector[j] for vector in prices for j in products]
    except KeyError as exc:
        raise ValidationError(f"no price for product {exc.args[0]!r}") from None
    costs = np.array(prices, dtype=float).reshape(len(rounds), len(products)) @ \
        np.array(quantities, dtype=float).reshape(len(table), len(products)).T
    if costs.size and costs.max() >= MAX_CENTS:
        raise ValidationError(f"{space.bidder_id}: a bundle costs 2**53 cents or more")

    # per row: its rhs, its slack name, entries and block
    rhs, slack_names, row_indices, row_values, row_lengths, kinds = [], [], [], [], [], []
    for rnd, (own, rows), cost in zip(rounds, chosen, costs.tolist()):
        for t, kind, columns, values, tag in rows:
            rhs.append(cost[own] - cost[t])
            if tag:
                slack_names.append(f"{tag[0]}::{rnd}::{tag[1]}")
            row_indices += columns
            row_values += values
            row_lengths.append(len(columns))
            kinds.append(kind)
    indices = np.array(row_indices + pairs, dtype=np.intp)
    indices[indices < 0] = np.arange(nfix, nfix + len(slack_names))
    rhs += [0.0] * n_d

    # the tiny weight on the marginals picks the vertex with minimal marginals
    # out of the degenerate optimal face; keeps re-simulation ties canonical
    weights = [1.0 if name.startswith("sl::") else mr_slack_weight for name in slack_names]
    lp = LinearProgram(names + slack_names,
                       [1.0] * len(bases) + [1e-6] * (nfix - len(bases)) + weights,
                       Rows(np.cumsum([0] + row_lengths + [2] * n_d), indices,
                            np.array(row_values + [1.0, -1.0] * n_d), rhs, [GE] * len(rhs)))
    return lp, kinds + [3] * n_d


@dataclass(frozen=True)
class EstimationReport:
    # a bidder's entry of estimation_report.json is every field but lp
    status: str
    slack_total_cents: float
    base_value_total_cents: float
    violations: dict[str, int]
    fallback_used: bool = False
    # with keep_lp, the LP solved first, min sum(slack) + sum(base values)
    # without marginal-rationality slack, even when the fallback was used
    lp: LinearProgram | None = field(default=None, compare=False, repr=False)


def _materialize(space: BundleSpace, sol: Solution) -> ValuationModel:
    """The model of the LP's values, each rounded to whole cents."""
    rounded = lambda name: max(0.0, float(round(sol.values[name])))
    base_values = {}
    for base in space.bases:
        base_values[base.base_id] = rounded(_vb(base.base_id))
    marginals: dict[tuple[str, int], float] = {}
    for j, ladder in space.ladders.items():
        marginals[(j, ladder.levels[0])] = 0.0
        prev_value = None
        for level in ladder.levels[1:]:
            v = rounded(_vm(j, level))
            if prev_value is not None:
                v = min(v, prev_value)  # snap solver noise back onto monotonicity
            marginals[(j, level)] = v
            prev_value = v
    return ValuationModel(bidder_id=space.bidder_id,
                          base_values=base_values, marginals=marginals)


def shortfalls(lp: LinearProgram, model: ValuationModel) -> list[int]:
    """Each (>=) row's shortfall on `model` in whole cents: how far its
    activity, at the model's values and every slack column at 0, falls
    below its right-hand side, else 0.  The sums are Python integers, so a
    coefficient or right-hand side that is not whole is a ValidationError."""
    rows, rhs = lp.rows, np.array(lp.rows.rhs, dtype=float)
    if not (np.array_equal(rows.data, np.rint(rows.data)) and np.array_equal(rhs, np.rint(rhs))):
        raise ValidationError(f"{model.bidder_id}: an LP row is not in whole numbers")
    values = {_vb(b): v for b, v in model.base_values.items()}
    values.update((_vm(j, level), v) for (j, level), v in model.marginals.items())
    x = [int(values.get(name, 0)) for name in lp.names]
    # running sums of the entries' products: a row's activity is the
    # difference of the sums at its ends
    sums = [0, *accumulate(map(operator.mul, map(int, rows.data.tolist()),
                               map(x.__getitem__, rows.indices.tolist())))]
    at = list(map(sums.__getitem__, rows.indptr.tolist()))
    return [d if d > 0 else 0 for d in map(operator.sub, map(int, rows.rhs),
                                           map(operator.sub, at[1:], at[:-1]))]


def estimate(space: BundleSpace, start_prices: dict[int, PriceVector],
             eligibility: dict[int, int], catalog: ProductCatalog,
             keep_lp: bool = False) -> tuple[ValuationModel, EstimationReport]:
    """Solve the valuation LP with HiGHS and materialize a model.

    If the LP is infeasible (possible if smoothing interacts badly with
    eligibility), re-solve with penalized slack on the marginal-rationality
    block (weight 10x the revealed-preference slack) and flag the report.
    The report's slack and violations are the written model's `shortfalls`
    on the rows solved.  With `keep_lp` the report keeps the LP solved
    first as `report.lp`.
    """
    lp, kinds = _build(space, start_prices, eligibility, catalog)
    first = lp
    sol = solve_lp(lp, backend="highs")
    fallback = sol.status == "infeasible"
    if fallback:
        lp, kinds = _build(space, start_prices, eligibility, catalog, mr_slack_weight=10.0)
        sol = solve_lp(lp, backend="highs")
    if sol.status != "optimal":
        raise SolverError(f"estimation LP for {space.bidder_id}: {sol.status}")

    # the written model against the rows: (c) rows have a slack column, and
    # so do (b) rows in the fallback; any other short row is a violation
    model = _materialize(space, sol)
    short = list(zip(kinds, shortfalls(lp, model)))
    slacked = (1, 2) if fallback else (2,)
    report = EstimationReport(
        status=sol.status,
        slack_total_cents=float(sum(gap for kind, gap in short if kind in slacked)),
        base_value_total_cents=float(sum(model.base_values.values())),
        violations=dict(Counter(BLOCKS[kind] for kind, gap in short
                                if gap and kind not in slacked)),
        fallback_used=fallback, lp=first if keep_lp else None)
    return model, report


# ---------------------------------------------------------------------------
# serialization


def model_to_json(model: ValuationModel, space: BundleSpace) -> str:
    """Deterministic JSON for a valuation model (cents, sorted keys)."""
    doc = {
        "bidder_id": model.bidder_id,
        "bases": [
            {"base_id": base.base_id,
             "products": {j: q for j, q in sorted(base.quantities.items())},
             "value_cents": model.base_values[base.base_id]}
            for base in space.bases
        ],
        "marginals": [
            {"product_id": j, "level": level,
             "value_cents_per_unit": model.marginals[(j, level)]}
            for (j, level) in sorted(model.marginals)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def model_from_json(text: str) -> tuple[ValuationModel, BundleSpace]:
    """Rebuild a model plus a simulation-ready bundle space (no observed map).
    Levels and base quantities must be JSON integers, values JSON numbers."""
    doc = finite_json(text)
    for name in [doc["bidder_id"], *(b["base_id"] for b in doc["bases"])]:
        if not isinstance(name, str):
            raise ValidationError(f"an id must be a string, not {name!r}")
    check_bidder_id(doc["bidder_id"])
    base_values = {b["base_id"]: number(b["value_cents"], "value_cents") for b in doc["bases"]}
    if len(base_values) < len(doc["bases"]):
        raise ValidationError("duplicate base_id")
    marginals = {(m["product_id"], integer(m["level"], "level")):
                 number(m["value_cents_per_unit"], "value_cents_per_unit")
                 for m in doc["marginals"]}
    model = ValuationModel(bidder_id=doc["bidder_id"],
                           base_values=base_values, marginals=marginals)
    ladders = {j: CopyLadder(j, levels) for j, levels in model._ladders.items()}
    bases = tuple(BundleBase(base_id=b["base_id"],
                             quantities={j: integer(q, "a base quantity")
                                         for j, q in b["products"].items()})
                  for b in doc["bases"])
    space = BundleSpace(bidder_id=doc["bidder_id"], bases=bases,
                        ladders=ladders, observed={})
    return model, space
