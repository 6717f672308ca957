"""Per-bidder lower-bound valuation recovery.

Valuations have two parts: a per-base complementarity value and per-product
marginal-value ladders with diminishing returns (the first ladder level is the
normalized zero baseline).  Given a smoothed log, we solve an LP that makes
the observed round-by-round choices as rational as possible: nonnegative
utility each round, marginal rationality against neighboring ladder levels,
and revealed preference against every eligible alternative variant, with
penalized slack.  Minimizing slack plus total base value yields the tightest
lower-bound valuations consistent with myopic, monotonic bidding.  The LP is
solved with HiGHS.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .core import Bundle, PriceVector, ProductCatalog, eligibility_cost, finite_json
from .errors import SolverError, ValidationError
from .ingest import BundleBase, BundleSpace, CopyLadder, enumerate_variants
from .solver import GE, LinearProgram, Solution, check_feasible, solve_lp

VALUE_TOL = 1e-6


def _ladder_steps(levels: tuple[int, ...], quantity: int):
    """(level, width) for each ladder level above the first, up to `quantity`."""
    prev = levels[0]
    for level in levels[1:]:
        if level > quantity:
            return
        yield level, level - prev
        prev = level


@dataclass(frozen=True)
class ValuationModel:
    bidder_id: str
    base_values: dict[str, float]            # base_id -> cents
    marginals: dict[tuple[str, int], float]  # (product_id, ladder level) -> cents/unit

    def __post_init__(self):
        for (j, level), v in self.marginals.items():
            if v < -VALUE_TOL:
                raise ValidationError(f"negative marginal for ({j}, {level})")
        for b, v in self.base_values.items():
            if v < -VALUE_TOL:
                raise ValidationError(f"negative base value for {b}")
        levels: dict[str, list[int]] = {}
        for (j, level) in self.marginals:
            levels.setdefault(j, []).append(level)
        # the ladders, computed once; tuples so no caller can change them
        object.__setattr__(self, "_ladders",
                           {j: tuple(sorted(lv)) for j, lv in levels.items()})
        for j, lv in self._ladders.items():
            if abs(self.marginals[(j, lv[0])]) > VALUE_TOL:
                raise ValidationError(f"first ladder level of {j} must be 0")
            for a, b in zip(lv[1:], lv[2:]):
                if self.marginals[(j, a)] < self.marginals[(j, b)] - VALUE_TOL:
                    raise ValidationError(f"diminishing returns violated for {j}")

    def ladder(self, product_id: str) -> tuple[int, ...]:
        levels = self._ladders.get(product_id)
        if levels is None:
            raise ValidationError(f"no ladder for product {product_id!r}")
        return levels

    def cumulative_value(self, product_id: str, quantity: int) -> float:
        """Sum of increment values up to `quantity` on the product's ladder."""
        levels = self.ladder(product_id)
        if quantity not in levels:
            raise ValidationError(
                f"quantity {quantity} off the ladder of {product_id!r}")
        total = 0.0
        for level, width in _ladder_steps(levels, quantity):
            total += width * self.marginals[(product_id, level)]
        return total


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


@dataclass
class _Problem:
    lp: LinearProgram
    blocks: list[str]                 # per-constraint block label
    slack_names: list[str]
    mr_slack_names: list[str] = field(default_factory=list)


def _vb(base_id: str) -> str:
    return f"vb::{base_id}"


def _vm(product_id: str, level: int) -> str:
    return f"vm::{product_id}::{level}"


def _utility_terms(space: BundleSpace, bundle: Bundle, base_id: str,
                   prices: PriceVector) -> tuple[dict[str, float], float]:
    """Linear coefficients over LP variables plus the constant price part of
    u(bundle; prices)."""
    coeffs: dict[str, float] = {_vb(base_id): 1.0}
    constant = 0.0
    for j, q in bundle.quantities.items():
        for level, width in _ladder_steps(space.ladders[j].levels, q):
            coeffs[_vm(j, level)] = coeffs.get(_vm(j, level), 0.0) + width
        constant -= q * prices[j]
    return coeffs, constant


def _preference(observed: tuple[dict[str, float], float],
                alternative: tuple[dict[str, float], float]
                ) -> tuple[dict[str, float], float]:
    """u(observed) - u(alternative) >= 0 as (coefficients, rhs), each utility
    given by its `_utility_terms`."""
    (u_coeffs, u_const), (a_coeffs, a_const) = observed, alternative
    coeffs = dict(u_coeffs)
    for name, coef in a_coeffs.items():
        coeffs[name] = coeffs.get(name, 0.0) - coef
    return coeffs, a_const - u_const


def _build(space: BundleSpace, start_prices: dict[int, PriceVector],
           eligibility: dict[int, int], catalog: ProductCatalog,
           mr_slack_weight: float | None = None) -> _Problem:
    """Every row is `>=`; rows (a)-(c) each say the observed bundle is no worse
    than an alternative, through `_preference`."""
    lp = LinearProgram()
    for base in space.bases:
        lp.add_variable(_vb(base.base_id), lb=0.0)
        lp.objective[_vb(base.base_id)] = 1.0
    for j in sorted(space.ladders):
        ladder = space.ladders[j]
        for level in ladder.levels[1:]:
            lp.add_variable(_vm(j, level), lb=0.0)
            # tiny weight picks the vertex with minimal marginals out of the
            # degenerate optimal face; keeps re-simulation ties canonical
            lp.objective[_vm(j, level)] = 1e-6

    prob = _Problem(lp=lp, blocks=[], slack_names=[])
    variants = [(variant, base.base_id, eligibility_cost(variant, catalog))
                for base in space.bases
                for variant in enumerate_variants(base, space.ladders)]

    def add(coeffs, rhs, block):
        lp.add_constraint(coeffs, GE, rhs)
        prob.blocks.append(block)

    def slack(name, weight, names):
        """A penalized nonnegative slack variable, listed on `names`."""
        lp.add_variable(name, lb=0.0)
        lp.objective[name] = weight
        names.append(name)
        return name

    for rnd in sorted(space.observed):
        bundle, base_id = space.observed[rnd]
        if rnd not in start_prices:
            raise ValidationError(f"no start prices for round {rnd}")
        prices = start_prices[rnd]

        u: tuple[dict[str, float], float] = ({}, 0.0)
        if bundle:
            if base_id is None:
                raise ValidationError(f"round {rnd}: observed bundle has no base")
            u = _utility_terms(space, bundle, base_id, prices)

            # (a) positive utility: no worse than sitting out, whose utility
            # is 0 (the constant -0.0 keeps the rhs exactly -u_const)
            add(*_preference(u, ({}, -0.0)), "positive_utility")

            # (b) marginal rationality: no worse than one ladder step on one
            # product; the terms that cancel are left out
            for j, q in bundle.quantities.items():
                ladder = space.ladders[j]
                k = ladder.index_of(q)
                for k2 in (k - 1, k + 1):
                    if not (1 <= k2 <= len(ladder.levels)):
                        continue
                    step = Bundle({**bundle.quantities, j: ladder.levels[k2 - 1]})
                    coeffs, rhs = _preference(
                        u, _utility_terms(space, step, base_id, prices))
                    coeffs = {name: coef for name, coef in coeffs.items() if coef}
                    if mr_slack_weight is not None:
                        coeffs[slack(f"ms::{rnd}::{j}::{k2}", mr_slack_weight,
                                     prob.mr_slack_names)] = 1.0
                    add(coeffs, rhs, "marginal_rationality")

        # (c) revealed preference with slack against eligible alternatives
        eligible = [(alt, alt_base) for alt, alt_base, cost in variants
                    if cost <= eligibility[rnd] and alt.key() != bundle.key()]
        for n, (alt, alt_base) in enumerate(eligible):
            coeffs, rhs = _preference(u, _utility_terms(space, alt, alt_base, prices))
            coeffs[slack(f"sl::{rnd}::{n}", 1.0, prob.slack_names)] = 1.0
            add(coeffs, rhs, "revealed_preference")

    # (d) diminishing returns between consecutive non-baseline increments
    for j in sorted(space.ladders):
        levels = space.ladders[j].levels
        for a, b in zip(levels[1:], levels[2:]):
            add({_vm(j, a): 1.0, _vm(j, b): -1.0}, 0.0, "diminishing_returns")

    return prob


@dataclass(frozen=True)
class EstimationReport:
    bidder_id: str
    status: str
    slack_total: float
    base_value_total: float
    violations: dict[str, int]
    fallback_used: bool = False
    # with keep_lp, the LP solved first, min sum(slack) + sum(base values)
    # without marginal-rationality slack, even when the fallback was used
    lp: LinearProgram | None = field(default=None, compare=False, repr=False)


def _materialize(space: BundleSpace, sol: Solution) -> ValuationModel:
    base_values = {}
    for base in space.bases:
        base_values[base.base_id] = max(0.0, sol.values[_vb(base.base_id)])
    marginals: dict[tuple[str, int], float] = {}
    for j, ladder in space.ladders.items():
        marginals[(j, ladder.levels[0])] = 0.0
        prev_value = None
        for level in ladder.levels[1:]:
            v = max(0.0, sol.values[_vm(j, level)])
            if prev_value is not None:
                v = min(v, prev_value)  # snap solver noise back onto monotonicity
            marginals[(j, level)] = v
            prev_value = v
    return ValuationModel(bidder_id=space.bidder_id,
                          base_values=base_values, marginals=marginals)


def estimate(space: BundleSpace, start_prices: dict[int, PriceVector],
             eligibility: dict[int, int], catalog: ProductCatalog,
             keep_lp: bool = False) -> tuple[ValuationModel, EstimationReport]:
    """Solve the valuation LP with HiGHS and materialize a model.

    If the LP is infeasible (possible if smoothing interacts badly with
    eligibility), re-solve with penalized slack on the marginal-rationality
    block (weight 10x the revealed-preference slack) and flag the report.
    With `keep_lp` the report keeps the LP solved first as `report.lp`.
    """
    prob = first = _build(space, start_prices, eligibility, catalog)
    sol = solve_lp(prob.lp, backend="highs")
    fallback = sol.status == "infeasible"
    if fallback:
        prob = _build(space, start_prices, eligibility, catalog, mr_slack_weight=10.0)
        sol = solve_lp(prob.lp, backend="highs")
    if sol.status != "optimal":
        raise SolverError(f"estimation LP for {space.bidder_id}: {sol.status}")

    model = _materialize(space, sol)
    slack_total = sum(sol.values[name] for name in prob.slack_names)
    slack_total += sum(sol.values[name] for name in prob.mr_slack_names)
    violations = dict(Counter(prob.blocks[i] for i in check_feasible(prob.lp, sol.values)))
    report = EstimationReport(
        bidder_id=space.bidder_id, status=sol.status,
        slack_total=float(slack_total),
        base_value_total=float(sum(model.base_values.values())),
        violations=violations, fallback_used=fallback, lp=first.lp if keep_lp else None)
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
    """Rebuild a model plus a simulation-ready bundle space (no observed map)."""
    doc = finite_json(text)
    for name in [doc["bidder_id"], *(b["base_id"] for b in doc["bases"])]:
        if not isinstance(name, str):
            raise ValidationError(f"an id must be a string, not {name!r}")
    base_values = {b["base_id"]: float(b["value_cents"]) for b in doc["bases"]}
    if len(base_values) < len(doc["bases"]):
        raise ValidationError("duplicate base_id")
    marginals = {(m["product_id"], int(m["level"])): float(m["value_cents_per_unit"])
                 for m in doc["marginals"]}
    model = ValuationModel(bidder_id=doc["bidder_id"],
                           base_values=base_values, marginals=marginals)
    ladders = {j: CopyLadder(j, levels) for j, levels in model._ladders.items()}
    bases = tuple(BundleBase(base_id=b["base_id"],
                             quantities={j: int(q) for j, q in b["products"].items()})
                  for b in doc["bases"])
    space = BundleSpace(bidder_id=doc["bidder_id"], bases=bases,
                        ladders=ladders, observed={})
    return model, space
