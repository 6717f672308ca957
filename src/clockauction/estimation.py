"""Per-bidder lower-bound valuation recovery.

Valuations have two parts: a per-base complementarity value and per-product
marginal-value ladders with diminishing returns (the first ladder level is the
normalized zero baseline).  Given a smoothed log, we solve an LP that makes
the observed round-by-round choices as rational as possible: nonnegative
utility each round, marginal rationality against neighboring ladder levels,
and revealed preference against every eligible alternative variant, with
penalized slack.  Minimizing slack plus total base value yields the tightest
lower-bound valuations consistent with myopic, monotonic bidding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .core import Bundle, PriceVector, ProductCatalog, eligibility_cost
from .errors import SolverError, ValidationError
from .ingest import BundleBase, BundleSpace, CopyLadder, enumerate_variants
from .solver import EQ, GE, LE, LinearProgram, Solution, check_feasible, solve_lp

VALUE_TOL = 1e-6


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
        total, prev = 0.0, levels[0]
        for level in levels[1:]:
            if level > quantity:
                break
            total += (level - prev) * self.marginals[(product_id, level)]
            prev = level
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
    best = 0
    for base in space.bases:
        cost = sum(space.ladders[j].levels[-1] * catalog.get(j).eligibility_points
                   for j in base.quantities)
        best = max(best, cost)
    return best


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
        ladder = space.ladders[j]
        prev = ladder.levels[0]
        for level in ladder.levels[1:]:
            if level > q:
                break
            coeffs[_vm(j, level)] = coeffs.get(_vm(j, level), 0.0) + (level - prev)
            prev = level
        constant -= q * prices[j]
    return coeffs, constant


def _variants_with_cost(space: BundleSpace, catalog: ProductCatalog):
    """Deterministic list of (bundle, base_id, eligibility_cost) over all bases."""
    out = []
    for base in space.bases:
        for variant in enumerate_variants(base, space.ladders):
            out.append((variant, base.base_id, eligibility_cost(variant, catalog)))
    return out


def _build(space: BundleSpace, start_prices: dict[int, PriceVector],
           eligibility: dict[int, int], catalog: ProductCatalog,
           mr_slack_weight: float | None = None) -> _Problem:
    lp = LinearProgram()
    objective: dict[str, float] = {}

    for base in space.bases:
        lp.add_variable(_vb(base.base_id), lb=0.0)
        objective[_vb(base.base_id)] = 1.0
    for j in sorted(space.ladders):
        ladder = space.ladders[j]
        for level in ladder.levels[1:]:
            lp.add_variable(_vm(j, level), lb=0.0)
            # tiny weight picks the vertex with minimal marginals out of the
            # degenerate optimal face; keeps re-simulation ties canonical
            objective[_vm(j, level)] = 1e-6

    prob = _Problem(lp=lp, blocks=[], slack_names=[])
    variants = _variants_with_cost(space, catalog)
    rounds = sorted(space.observed)

    def add(coeffs, relation, rhs, block):
        lp.add_constraint(coeffs, relation, rhs)
        prob.blocks.append(block)

    for rnd in rounds:
        bundle, base_id = space.observed[rnd]
        if rnd not in start_prices:
            raise ValidationError(f"no start prices for round {rnd}")
        prices = start_prices[rnd]
        elig = eligibility[rnd]

        if bundle:
            if base_id is None:
                raise ValidationError(f"round {rnd}: observed bundle has no base")
            u_coeffs, u_const = _utility_terms(space, bundle, base_id, prices)

            # (a) positive utility
            add(dict(u_coeffs), GE, -u_const, "positive_utility")

            # (b) marginal rationality against neighboring ladder levels
            for j, q in bundle.quantities.items():
                ladder = space.ladders[j]
                k = ladder.index_of(q)
                for k2 in (k - 1, k + 1):
                    if not (1 <= k2 <= len(ladder.levels)):
                        continue
                    coeffs: dict[str, float] = {}
                    prev = ladder.levels[0]
                    for level in ladder.levels[1:]:
                        if level > max(q, ladder.levels[k2 - 1]):
                            break
                        sign = 0.0
                        if level <= q:
                            sign += 1.0
                        if level <= ladder.levels[k2 - 1]:
                            sign -= 1.0
                        if sign:
                            coeffs[_vm(j, level)] = sign * (level - prev)
                        prev = level
                    rhs = (q - ladder.levels[k2 - 1]) * prices[j]
                    if mr_slack_weight is not None:
                        name = f"ms::{rnd}::{j}::{k2}"
                        lp.add_variable(name, lb=0.0)
                        objective[name] = mr_slack_weight
                        coeffs[name] = 1.0
                        prob.mr_slack_names.append(name)
                    add(coeffs, GE, rhs, "marginal_rationality")
        else:
            u_coeffs, u_const = {}, 0.0

        # (c) revealed preference with slack against eligible alternatives
        n_alt = 0
        for alt, alt_base, alt_cost in variants:
            if alt.key() == bundle.key() or alt_cost > elig:
                continue
            a_coeffs, a_const = _utility_terms(space, alt, alt_base, prices)
            coeffs = dict(u_coeffs)
            for name, coef in a_coeffs.items():
                coeffs[name] = coeffs.get(name, 0.0) - coef
            slack = f"sl::{rnd}::{n_alt}"
            lp.add_variable(slack, lb=0.0)
            objective[slack] = 1.0
            prob.slack_names.append(slack)
            coeffs[slack] = 1.0
            add(coeffs, GE, a_const - u_const, "revealed_preference")
            n_alt += 1

    # (d) diminishing returns between consecutive non-baseline increments
    for j in sorted(space.ladders):
        levels = space.ladders[j].levels
        for a, b in zip(levels[1:], levels[2:]):
            add({_vm(j, a): 1.0, _vm(j, b): -1.0}, GE, 0.0, "diminishing_returns")

    lp.objective = objective
    return prob


@dataclass(frozen=True)
class EstimationReport:
    bidder_id: str
    status: str
    slack_total: float
    base_value_total: float
    violations: dict[str, int]
    fallback_used: bool = False
    # the LP solved first, min sum(slack) + sum(base values) without
    # marginal-rationality slack, even when the fallback was used
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
             backend: str = "highs"
             ) -> tuple[ValuationModel, EstimationReport]:
    """Solve the valuation LP and materialize a model.

    If the LP is infeasible (possible if smoothing interacts badly with
    eligibility), re-solve with penalized slack on the marginal-rationality
    block (weight 10x the revealed-preference slack) and flag the report.
    The report keeps the LP solved first as `report.lp`.
    """
    prob = first = _build(space, start_prices, eligibility, catalog)
    sol = solve_lp(prob.lp, backend=backend)
    fallback = False
    if sol.status == "infeasible":
        prob = _build(space, start_prices, eligibility, catalog, mr_slack_weight=10.0)
        sol = solve_lp(prob.lp, backend=backend)
        fallback = True
    if sol.status != "optimal":
        raise SolverError(f"estimation LP for {space.bidder_id}: {sol.status}")

    model = _materialize(space, sol)
    slack_total = sum(sol.values[name] for name in prob.slack_names)
    slack_total += sum(sol.values[name] for name in prob.mr_slack_names)
    violations: dict[str, int] = {}
    for idx in check_feasible(prob.lp, sol.values):
        block = prob.blocks[idx] if idx < len(prob.blocks) else "bounds"
        violations[block] = violations.get(block, 0) + 1
    report = EstimationReport(
        bidder_id=space.bidder_id, status=sol.status,
        slack_total=float(slack_total),
        base_value_total=float(sum(model.base_values.values())),
        violations=violations, fallback_used=fallback, lp=first.lp)
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
    doc = json.loads(text)
    base_values = {b["base_id"]: float(b["value_cents"]) for b in doc["bases"]}
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
