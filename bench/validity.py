"""Checks on the artifacts of one workload run, run outside the timed region.

Each check returns a list of problems (empty when the artifact is valid).
They re-derive every figure from the files the CLI wrote and the benchmark's
own inputs.  Beyond the package's data types they use only its model reader
(`model_from_json`) and its valuation formulas (`bundle_utility`,
`enumerate_variants`, `eligibility_cost`, `initial_eligibility`), which
define what the optimality spot-check checks.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from clockauction.core import Bundle, PriceVector, ProductCatalog, eligibility_cost
from clockauction.engine import BidderAgent
from clockauction.estimation import bundle_utility, initial_eligibility, model_from_json
from clockauction.ingest import enumerate_variants

TIERS = ("low", "medium", "high")     # loosest to strictest
OBJECTIVE_RTOL = 1e-6
TIE_TOL = 1e-6
SPOT_CHECK_PAIRS = 48


def digest(dirs: list[Path]) -> str:
    """SHA-256 over every file's relative name and bytes, in sorted order."""
    h = hashlib.sha256()
    for d in dirs:
        for path in sorted(p for p in d.rglob("*") if p.is_file()):
            h.update(f"{d.name}/{path.relative_to(d).as_posix()}\0".encode())
            h.update(path.read_bytes())
            h.update(b"\0")
    return h.hexdigest()


@dataclass
class AuctionFacts:
    """What the benchmark reads back from one auction's trace."""
    rounds: list[dict]
    summary: dict
    decisions: int = 0       # bidder-round bid decisions (active bidders per round)
    emitted_rows: int = 0    # nonzero (round, bidder, product) rows of its bid log
    problems: list[str] = field(default_factory=list)


def _bid_items(bid, tiered: bool):
    """(key, quantity) pairs of one bid; tiered keys are product::tier."""
    if tiered:
        return [(f"{j}::{t}", q) for j, (t, q) in bid.items()]
    return list(bid.items())


def check_auction(out: Path, catalog: ProductCatalog, tiered: bool) -> AuctionFacts:
    """Not truncated, final round clears, aggregates and revenue add up."""
    suffix = "_tiered" if tiered else ""
    try:
        rounds = [json.loads(line) for line in
                  (out / f"trace{suffix}.jsonl").read_text(encoding="utf-8").splitlines()
                  if line.strip()]
        summary = json.loads((out / f"summary{suffix}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return AuctionFacts([], {}, problems=[f"unreadable artifact: {exc}"])
    facts = AuctionFacts(rounds, summary)
    bad = facts.problems
    if not rounds:
        bad.append("empty trace")
        return facts
    if summary.get("truncated") is not False:
        bad.append("auction truncated")
    if summary.get("rounds_used") != len(rounds):
        bad.append("rounds_used differs from the trace length")

    active = set(rounds[0]["bids"])
    for record in rounds:
        facts.decisions += len(active)
        active = {b for b, bid in record["bids"].items() if bid}
        demand: dict[str, int] = {}
        for bid in record["bids"].values():
            for key, q in _bid_items(bid, tiered):
                demand[key] = demand.get(key, 0) + q
                facts.emitted_rows += 1
        if any(record["aggregate"].get(k, 0) != v for k, v in demand.items()) or \
                sum(record["aggregate"].values()) != sum(demand.values()):
            bad.append(f"round {record['round']}: aggregate differs from the bids")

    final = rounds[-1]
    for p in catalog:
        if tiered:
            # hierarchical rule: demand at a tier plus all stricter tiers
            cumulative = 0
            for t in reversed(TIERS):
                cumulative += final["aggregate"].get(f"{p.id}::{t}", 0)
                if cumulative > p.supply:
                    bad.append(f"final round overdemands {p.id} at tier {t}")
        elif final["aggregate"].get(p.id, 0) > p.supply:
            bad.append(f"final round overdemands {p.id}")

    allocation = summary.get("final_allocation")
    if allocation != final["bids"]:
        bad.append("final allocation differs from the last round's bids")
    else:
        revenue = sum(q * final["posted"][key] for bid in allocation.values()
                      for key, q in _bid_items(bid, tiered))
        if summary.get("revenue_cents") != revenue:
            bad.append(f"revenue {summary.get('revenue_cents')} != "
                       f"sum of quantity x final posted price {revenue}")
    return facts


def check_estimate(out: Path, bidders: set[str]) -> tuple[list[str], float]:
    """Empty violations for every bidder, a model per bidder; returns the
    summed objective terms (slack plus base values, cents)."""
    try:
        report = json.loads((out / "estimation_report.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable estimation report: {exc}"], 0.0
    bad = []
    entries = report.get("bidders", {})
    if set(entries) != bidders:
        bad.append("estimation report does not cover the log's bidders")
    models = {p.name[len("model_"):-len(".json")] for p in out.glob("model_*.json")}
    if models != bidders:
        bad.append("model files do not match the log's bidders")
    objective = 0.0
    for bidder, entry in sorted(entries.items()):
        if entry.get("violations"):
            bad.append(f"{bidder}: violations {entry['violations']}")
        if entry.get("status") != "optimal":
            bad.append(f"{bidder}: status {entry.get('status')}")
        objective += entry["slack_total_cents"] + entry["base_value_total_cents"]
    return bad, objective


def objective_matches(objective: float, reference: float) -> bool:
    return abs(objective - reference) <= OBJECTIVE_RTOL * max(1.0, abs(reference))


def load_agents(models_dir: Path) -> list[BidderAgent]:
    """The bidders of the model_*.json files an estimate step wrote."""
    agents = []
    for path in sorted(models_dir.glob("model_*.json")):
        model, space = model_from_json(path.read_text(encoding="utf-8"))
        agents.append(BidderAgent(bidder_id=model.bidder_id, model=model, space=space))
    return agents


def spot_check(facts: AuctionFacts, agents: list[BidderAgent],
               catalog: ProductCatalog, seed: int) -> list[str]:
    """For a fixed sample of (bidder, round) pairs, the traced bid's utility
    equals the maximum over the bidder's eligible variants (ties within
    TIE_TOL count as optimal); a bidder who exits has no eligible variant of
    nonnegative utility."""
    by_id = {a.bidder_id: a for a in agents}
    eligibility: dict[tuple[str, int], int] = {}
    exited_before: set[tuple[str, int]] = set()
    for bidder, agent in by_id.items():
        current, gone = initial_eligibility(agent.space, catalog), False
        for record in facts.rounds:
            eligibility[(bidder, record["round"])] = current
            if gone:
                exited_before.add((bidder, record["round"]))
            bid = record["bids"].get(bidder, {})
            if bid:
                current = min(current, eligibility_cost(Bundle(bid), catalog))
            else:
                gone, current = True, 0
    pairs = sorted(k for k in eligibility if k not in exited_before)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pairs), size=min(SPOT_CHECK_PAIRS, len(pairs)), replace=False)
    records = {r["round"]: r for r in facts.rounds}
    bad = []
    for i in sorted(picks):
        bidder, rnd = pairs[i]
        agent = by_id[bidder]
        prices = PriceVector(records[rnd]["start"])
        budget = eligibility[(bidder, rnd)]
        best = None
        for base in agent.space.bases:
            for variant in enumerate_variants(base, agent.space.ladders):
                if eligibility_cost(variant, catalog) <= budget:
                    u = bundle_utility(agent.model, variant, base, prices)
                    best = u if best is None else max(best, u)
        bid = Bundle(records[rnd]["bids"].get(bidder, {}))
        tol = TIE_TOL * max(1.0, abs(best or 0.0))
        if not bid:
            if best is not None and best >= tol:
                bad.append(f"{bidder} round {rnd}: exited with utility {best} available")
            continue
        if eligibility_cost(bid, catalog) > budget:
            bad.append(f"{bidder} round {rnd}: bid exceeds eligibility")
            continue
        own = [bundle_utility(agent.model, bid, base, prices)
               for base in agent.space.bases
               if base.support() == bid.support()
               and all(bid[j] >= q for j, q in base.quantities.items())]
        if not own:
            bad.append(f"{bidder} round {rnd}: bid is no variant of a base")
        elif best is None or max(own) < best - tol or max(own) < -tol:
            bad.append(f"{bidder} round {rnd}: bid utility {max(own)} below "
                       f"the best eligible {best}")
    return bad
