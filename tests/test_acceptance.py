"""Acceptance suite: one test per shipping criterion, each printing a single
PASS/FAIL line.  Criteria 7 and 8 replay the Canadian 3800/3500 MHz datasets
and only run when the (non-redistributable) round data is supplied through
environment variables; see the class docstrings for the expected layout.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest

from clockauction import cli
from clockauction.core import (Bundle, IncrementSchedule, Product,
                               ProductCatalog, cents_to_dollars, dollars_to_cents,
                               eligibility_cost)
from clockauction.errors import ValidationError
from clockauction.costs import (CostParameters, SCENARIOS, AreaStats,
                                TowerInventory, build_cost_table,
                                cost_table_to_csv, load_demographics,
                                load_inventory)
from clockauction.engine import (AuctionConfig, BidderAgent, best_copies,
                                 compare_allocations, run_auction,
                                 trace_to_jsonl)
from clockauction.estimation import ValuationModel
from clockauction.ingest import (BundleBase, BundleSpace, CopyLadder,
                                 parse_bid_log, smooth_monotone, write_bid_log)
from clockauction.pipeline import estimate_all, roundtrip, trace_to_bidlog
from clockauction.synthetic import random_setup
from clockauction.tiered import (TIERS, TieredValuationAdjustment,
                                 coverage_report, run_extended_auction,
                                 tier_overdemand)
from test_solver import constraints, feasible_reference


def report(label, ok, detail=""):
    print(f"\nACCEPTANCE {label}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. BEST_COPIES vs exhaustive enumeration, integer-cent exact


def test_01_best_copies_oracle():
    rng = np.random.default_rng(314159)
    t0 = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        specs = {}
        ladders = {}
        int_marginals = {}
        base_q = {}
        for i in range(n):
            j = f"P{i}"
            supply = int(rng.integers(1, 9))
            n_levels = int(rng.integers(1, min(5, supply) + 1))
            levels = sorted(int(v) for v in rng.choice(
                np.arange(1, supply + 1), size=n_levels, replace=False))
            ladders[j] = levels
            specs[j] = (supply, int(rng.integers(1, 5)), 100)
            vals = np.sort(rng.integers(0, 50_000, size=n_levels))[::-1]
            int_marginals[(j, levels[0])] = 0
            for lvl, v in zip(levels[1:], vals[1:]):
                int_marginals[(j, lvl)] = int(v)
            base_q[j] = levels[int(rng.integers(0, n_levels))]
        catalog = ProductCatalog(products=tuple(
            Product(id=j, area_id=j, area_class="urban", supply=s,
                    eligibility_points=e, opening_price=p)
            for j, (s, e, p) in specs.items()))
        model = ValuationModel("X", {"X/base0": 0.0},
                               {k: float(v) for k, v in int_marginals.items()})
        base = BundleBase("X/base0", base_q)
        price = {j: int(rng.integers(0, 40_000)) for j in specs}
        elig = int(rng.integers(0, 40))

        from clockauction.core import PriceVector
        entry = best_copies(base, model, PriceVector(price), elig, catalog, {})
        # the bid the auction uses: the entry's known bid, else its MIP's
        got = None if entry is None else (entry if entry.bid is not None else entry.resolve()).bid

        def cum(j, q):
            total, prev = 0, ladders[j][0]
            for level in ladders[j][1:]:
                if level > q:
                    break
                total += (level - prev) * int_marginals[(j, level)]
                prev = level
            return total

        def utility(combo):
            return sum(cum(j, q) - q * price[j] for j, q in combo)

        best_u = None
        for combo in itertools.product(
                *[[(j, q) for q in ladders[j] if q >= base_q[j]]
                  for j in sorted(base_q)]):
            cost = sum(q * specs[j][1] for j, q in combo)
            if cost <= elig:
                u = utility(combo)
                best_u = u if best_u is None else max(best_u, u)
        if best_u is None:
            if got is not None:
                mismatches += 1
        else:
            got_u = None if got is None else utility(sorted(got.quantities.items()))
            if got_u != best_u:  # integer cents, zero tolerance
                mismatches += 1
    elapsed = time.monotonic() - t0
    report("1 best_copies oracle (1000 instances)",
           mismatches == 0 and elapsed < 30,
           f"{mismatches} mismatches, {elapsed:.1f}s")


def test_01b_tiered_oracle():
    """The tiered bidder oracle against enumeration of every base and every
    (tier, ladder level) per product, with lump-sum deployment costs per
    engaged (area, tier): the bid across bases, and each base's own; integer
    data, so utilities agree to 1e-6."""
    rng = np.random.default_rng(271828)
    mismatches = []
    for instance in range(200):
        n = int(rng.integers(1, 4))
        ladders, int_marginals, specs = {}, {}, {}
        for i in range(n):
            j = f"P{i}"
            levels = sorted(int(v) for v in rng.choice(
                np.arange(1, 5), size=int(rng.integers(1, 4)), replace=False))
            ladders[j] = levels
            specs[j] = (f"A{int(rng.integers(0, 2))}", int(rng.integers(1, 4)))
            vals = np.sort(rng.integers(0, 50_000, size=len(levels)))[::-1]
            int_marginals[(j, levels[0])] = 0
            for lvl, v in zip(levels[1:], vals[1:]):
                int_marginals[(j, lvl)] = int(v)
        catalog = ProductCatalog(products=tuple(
            Product(id=j, area_id=a, area_class="urban", supply=4,
                    eligibility_points=e, opening_price=100)
            for j, (a, e) in specs.items()))
        bases, base_values = [], {}
        for b in range(int(rng.integers(1, 3))):
            members = [j for j in ladders if rng.random() < 0.7] or ["P0"]
            quantities = {j: ladders[j][int(rng.integers(0, len(ladders[j])))]
                          for j in members}
            bases.append(BundleBase(f"X/base{b}", quantities))
            base_values[f"X/base{b}"] = int(rng.integers(0, 30_000))
        costs = {}
        for a in sorted({a for a, _ in specs.values()}):
            total = 0
            for t in TIERS:
                total += int(rng.integers(0, 20_000))
                costs[("X", a, t)] = total
        adjustment = TieredValuationAdjustment(costs)
        price = {(j, t): int(rng.integers(0, 40_000)) for j in ladders for t in TIERS}
        elig = int(rng.integers(0, 30))
        model = ValuationModel("X", {k: float(v) for k, v in base_values.items()},
                               {k: float(v) for k, v in int_marginals.items()})
        agent = BidderAgent("X", model, BundleSpace(
            bidder_id="X", bases=tuple(bases),
            ladders={j: CopyLadder(j, tuple(lv)) for j, lv in ladders.items()},
            observed={}))

        from clockauction.core import PriceVector
        from clockauction.tiered import _best_tiered_copies, _myopic_tiered_bid
        got = _myopic_tiered_bid(agent, PriceVector(price), catalog, elig, adjustment, {})

        def cum(j, q):
            total, prev = 0, ladders[j][0]
            for level in ladders[j][1:]:
                if level > q:
                    break
                total += (level - prev) * int_marginals[(j, level)]
                prev = level
            return total

        def utility(base, bid):
            """Utility of {product: (tier, quantity)} on `base`, or None when
            the bid is not a feasible variant of it."""
            if set(bid) != set(base.quantities) or any(
                    q < base.quantities[j] for j, (t, q) in bid.items()):
                return None
            if sum(q * specs[j][1] for j, (t, q) in bid.items()) > elig:
                return None
            engaged = {(specs[j][0], t) for j, (t, q) in bid.items()}
            return (base_values[base.base_id]
                    + sum(cum(j, q) - q * price[(j, t)] for j, (t, q) in bid.items())
                    - sum(costs[("X", a, t)] for a, t in engaged))

        best_u = None
        for base in bases:
            base_u = None
            for combo in itertools.product(
                    *[[(j, (t, q)) for t in TIERS for q in ladders[j]
                       if q >= base.quantities[j]] for j in sorted(base.quantities)]):
                u = utility(base, dict(combo))
                if u is not None and (base_u is None or u > base_u):
                    base_u = u
            # the base's own bid, as the auction uses it: known, else its MIP's
            entry = _best_tiered_copies(base, model, PriceVector(price), elig, catalog, "X",
                                        adjustment, {})
            if (entry is None) != (base_u is None):
                mismatches.append((instance, base.base_id, base_u, entry))
            elif entry is not None:
                bid = (entry if entry.bid is not None else entry.resolve()).bid
                if abs(utility(base, bid) - base_u) > 1e-6:
                    mismatches.append((instance, base.base_id, base_u, bid))
            if base_u is not None and (best_u is None or base_u > best_u):
                best_u = base_u
        exits = best_u is None or best_u < 0
        if exits != (got is None):
            mismatches.append((instance, best_u, got))
        elif got is not None:
            got_u = max(u for u in (utility(b, got) for b in bases) if u is not None)
            if abs(got_u - best_u) > 1e-6:
                mismatches.append((instance, best_u, got_u))
    report("1b tiered oracle (200 instances)", not mismatches,
           f"{len(mismatches)} mismatches {mismatches[:3]}")


# ---------------------------------------------------------------------------
# 2. estimation round-trip on 50 synthetic auctions


def test_02_estimation_roundtrip():
    t0 = time.monotonic()
    exact = 0
    rmses = []
    revenue_violations = 0
    for seed in range(50):
        config, agents = random_setup(1000 + seed, n_bidders=5, n_products=10,
                                      max_supply=6)
        result = roundtrip(config, agents)
        rmses.append(result.rmse_mean)
        if result.rmse_mean == 0.0:
            exact += 1
        if result.replayed.revenue > result.original.revenue:
            revenue_violations += 1
    elapsed = time.monotonic() - t0
    avg = sum(rmses) / len(rmses)
    report("2 estimation round-trip (50 auctions)",
           exact >= 45 and avg <= 0.1 and revenue_violations == 0
           and elapsed < 300,
           f"exact {exact}/50, avg RMSE {avg:.4f}, "
           f"{revenue_violations} revenue violations, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 3. LP hard constraints hold for estimated models; zero slack on consistent logs


def test_03_lp_constraint_satisfaction():
    worst = 0
    slack_worst = 0.0
    for seed in range(15):
        config, agents = random_setup(3000 + seed, n_bidders=4, n_products=8)
        raw = trace_to_bidlog(run_auction(config, agents))
        estimates = estimate_all(raw, config.catalog, config.increments, keep_lp=True)
        for est in estimates.values():
            space, lp = est.space, est.report.lp
            values = {}
            for base in space.bases:
                values[f"vb::{base.base_id}"] = est.model.base_values[base.base_id]
            for (j, level), v in est.model.marginals.items():
                values[f"vm::{j}::{level}"] = v
            # give every revealed-preference row its minimal admissible slack,
            # then nothing else in the system may be violated
            for coeffs, _, rhs in constraints(lp):
                slack_names = [n for n in coeffs if n.startswith("sl::")]
                if slack_names:
                    rest = sum(coef * values[n] for n, coef in coeffs.items()
                               if not n.startswith("sl::"))
                    values[slack_names[0]] = max(0.0, rhs - rest)
            bad = feasible_reference(lp, values)
            worst = max(worst, len(bad))
            slack_worst = max(slack_worst, est.report.slack_total_cents,
                              sum(v for n, v in values.items()
                                  if n.startswith("sl::")))
    report("3 LP hard-constraint satisfaction",
           worst == 0 and slack_worst <= 1e-4,
           f"{worst} violated rows, max slack {slack_worst:.2e} cents")


# ---------------------------------------------------------------------------
# 4. engine invariants on 200 randomized configs


def test_04_engine_invariants():
    rng = np.random.default_rng(777)
    failures = []
    for k in range(200):
        kwargs = dict(
            n_bidders=int(rng.integers(2, 6)),
            n_products=int(rng.integers(3, 9)),
            max_supply=int(rng.integers(2, 7)),
            n_bases=int(rng.integers(1, 3)),
            delta=float(rng.choice([0.1, 0.15, 0.2])),
            max_rounds=120,
        )
        seed = 40_000 + k
        config, agents = random_setup(seed, **kwargs)
        trace = run_auction(config, agents)
        ids = config.catalog.ids()
        for prev, cur in zip(trace.rounds, trace.rounds[1:]):
            if any(cur.posted[j] < prev.posted[j] for j in ids):
                failures.append((seed, "posted price decreased"))
            if any(cur.eligibility[b] > prev.eligibility[b]
                   for b in prev.eligibility):
                failures.append((seed, "eligibility increased"))
        last = trace.rounds[-1]
        cleared = all(last.aggregate[j] <= config.catalog.get(j).supply
                      for j in ids)
        if not (cleared or trace.truncated):
            failures.append((seed, "neither cleared nor flagged truncated"))
        if trace.rounds_used > config.max_rounds:
            failures.append((seed, "exceeded max_rounds"))
        config2, agents2 = random_setup(seed, **kwargs)
        if trace_to_jsonl(run_auction(config2, agents2)) != trace_to_jsonl(trace):
            failures.append((seed, "trace bytes differ between runs"))
    report("4 engine invariants (200 configs)", not failures,
           f"{len(failures)} failures: {failures[:3]}")


# ---------------------------------------------------------------------------
# 5. tier rule table (exhaustive) + price gradient on randomized tiered runs


def _oracle_overdemand(demands, supply):
    # a tier is overdemanded when some combination of commitment levels that
    # imply it demands more than the shared supply; with nonnegative demands
    # the binding combination is the full implying set
    implying = {"high": ("high",), "medium": ("medium", "high"),
                "low": ("low", "medium", "high")}
    return {t: sum(demands.get(l, 0) for l in implying[t]) > supply
            for t in TIERS}


def _unit_agent(bidder, product, value):
    model = ValuationModel(bidder, {f"{bidder}/base0": value},
                           {(product, 1): 0.0})
    space = BundleSpace(
        bidder_id=bidder,
        bases=(BundleBase(f"{bidder}/base0", {product: 1}),),
        ladders={product: CopyLadder(product, (1,))}, observed={})
    return BidderAgent(bidder_id=bidder, model=model, space=space)


def test_05_tier_rules_and_price_gradient():
    mismatches = 0
    for s in range(1, 7):
        for d_l in range(2 * s + 1):
            for d_m in range(2 * s + 1):
                for d_h in range(2 * s + 1):
                    demands = {"low": d_l, "medium": d_m, "high": d_h}
                    if tier_overdemand(demands, s) != _oracle_overdemand(demands, s):
                        mismatches += 1

    rng = np.random.default_rng(2718)
    gradient_failures = 0
    truncations = 0
    for _ in range(100):
        supply = int(rng.integers(1, 3))
        catalog = ProductCatalog(products=(
            Product("P1", "A1", "urban", supply, 1, 100_00),))
        n = int(rng.integers(2, 4))
        agents = [_unit_agent(f"B{i}", "P1", int(rng.integers(110, 500)) * 100)
                  for i in range(n)]
        steps = {i: int(rng.integers(0, 10)) * 100 for i in range(n)}
        adj = TieredValuationAdjustment(
            {(f"B{i}", "A1", t): TIERS.index(t) * steps[i]
             for i in range(n) for t in TIERS})
        config = AuctionConfig(catalog=catalog,
                               increments=IncrementSchedule.constant(0.1),
                               max_rounds=80)
        trace = run_extended_auction(config, agents, adj)
        truncations += trace.truncated
        for record in trace.rounds:
            if not (record.posted[("P1", "high")] <= record.posted[("P1", "medium")]
                    <= record.posted[("P1", "low")]):
                gradient_failures += 1
    report("5 tier rules exhaustive + price gradient (100 runs)",
           mismatches == 0 and gradient_failures == 0 and truncations == 0,
           f"{mismatches} rule mismatches, {gradient_failures} gradient "
           f"violations, {truncations} truncations")


# ---------------------------------------------------------------------------
# 6. cost model fixtures


def test_06_cost_model_fixtures():
    params = CostParameters()
    ok_mid = params.tower_cost_mid == dollars_to_cents("323328.50")

    catalog = ProductCatalog(products=(
        Product("P1", "A1", "metro", 3, 1, 100_00),
        Product("P2", "A2", "remote", 2, 1, 100_00)))
    demographics = {"A1": AreaStats("A1", "metro", 900_000, 200.0),
                    "A2": AreaStats("A2", "remote", 15_000, 8_000.0)}

    saturated = TowerInventory({("X", "A1"): 100, ("X", "A2"): 100})
    ok_zero = all(
        all(c == 0 for c in build_cost_table(
            catalog, demographics, saturated, scenario, params).costs.values())
        for scenario in SCENARIOS.values())

    empty = TowerInventory({("X", "A1"): 0, ("X", "A2"): 0})
    ok_monotone = True
    tables = {}
    for key, scenario in SCENARIOS.items():
        table = build_cost_table(catalog, demographics, empty, scenario, params)
        tables[key] = cost_table_to_csv(table)
        for area in ("A1", "A2"):
            costs = [table.costs[("X", area, t)] for t in TIERS]
            ok_monotone = ok_monotone and costs == sorted(costs)
    ok_deterministic = all(
        cost_table_to_csv(build_cost_table(catalog, demographics, empty,
                                           SCENARIOS[key], params)) == tables[key]
        for key in SCENARIOS)

    report("6 cost model fixtures",
           ok_mid and ok_zero and ok_monotone and ok_deterministic,
           f"midpoint={ok_mid} zero-deficit={ok_zero} "
           f"monotone={ok_monotone} deterministic={ok_deterministic}")


# ---------------------------------------------------------------------------
# 7. replication against the public 3800/3500 MHz round data (optional)


def _load_band(root: Path):
    """The band's catalog, raw bid log, auction config and named companies;
    `config.yaml`, when there is one, is read as the command line reads it."""
    catalog = ProductCatalog.from_csv(root / "catalog.csv")
    raw = parse_bid_log(root / "bids.csv", catalog)
    cfg_path = root / "config.yaml"
    config, _ = cli._load_config(str(cfg_path) if cfg_path.exists() else None, catalog)
    companies = []
    names = root / "companies.txt"
    if names.exists():
        companies = [l.strip() for l in names.read_text().splitlines() if l.strip()]
    return catalog, raw, config, companies


def test_load_band_reads_the_config_as_the_command_line(tmp_path):
    """The replays below are skipped without the round data, so their loader
    is checked here on a band of its own: no config gives the defaults, a
    config's delta and max_rounds are read, and a key the program does not
    read is an error naming the file."""
    truth, agents = random_setup(91, n_bidders=3, n_products=4, max_supply=3)
    lines = ["product_id,area_id,area_class,supply,eligibility_points,opening_price_cad"]
    lines += [f"{p.id},{p.area_id},{p.area_class},{p.supply},{p.eligibility_points},"
              f"{cents_to_dollars(p.opening_price)}" for p in truth.catalog]
    (tmp_path / "catalog.csv").write_text("\n".join(lines) + "\n")
    write_bid_log(trace_to_bidlog(run_auction(truth, agents)), tmp_path / "bids.csv")
    catalog, raw, config, companies = _load_band(tmp_path)
    assert catalog == truth.catalog and companies == []
    assert sorted(raw.bidders()) == sorted(a.bidder_id for a in agents)
    assert (config.increments.delta, config.max_rounds) == (0.1, 200)
    (tmp_path / "config.yaml").write_text("delta: 0.15\nmax_rounds: 30\n")
    _, _, config, _ = _load_band(tmp_path)
    assert (config.increments.delta, config.max_rounds) == (0.15, 30)
    (tmp_path / "config.yaml").write_text("max_round: 30\n")
    with pytest.raises(ValidationError, match="max_round"):
        _load_band(tmp_path)


def _replicate_band(root, revenue_cents, units, rmse_cap, rounds_expected):
    catalog, raw, config, companies = _load_band(Path(root))
    smoothed = smooth_monotone(raw)
    estimates = estimate_all(raw, catalog, config.increments)
    agents = [BidderAgent(bidder_id=b, model=e.model, space=e.space)
              for b, e in sorted(estimates.items())]
    trace = run_auction(config, agents)
    actual = {b: smoothed.bundle(b, smoothed.num_rounds(b)) for b in estimates}
    simulated = {b: trace.final_allocation.get(b, Bundle({})) for b in estimates}
    per_bidder, mean = compare_allocations(actual, simulated, catalog)
    sold = sum(q for b in trace.final_allocation.values()
               for q in b.quantities.values())
    named = companies or sorted(per_bidder)[:5]
    exact_named = sum(1 for b in named if per_bidder.get(b, 1.0) == 0.0)
    ok = (abs(trace.revenue - revenue_cents) <= 0.01 * revenue_cents
          and sold == units
          and mean <= rmse_cap
          and exact_named >= 4
          and abs(trace.rounds_used - rounds_expected) <= 3)
    detail = (f"revenue {trace.revenue} vs {revenue_cents}, units {sold}, "
              f"RMSE {mean:.3f}, exact named {exact_named}, "
              f"rounds {trace.rounds_used}")
    return ok, detail


@pytest.mark.skipif("CLOCKAUCTION_ISED_3800_DIR" not in os.environ,
                    reason="3800 MHz round data not supplied "
                           "(set CLOCKAUCTION_ISED_3800_DIR)")
def test_07a_replication_3800():
    """Needs catalog.csv + bids.csv (+ optional config.yaml, companies.txt)."""
    ok, detail = _replicate_band(os.environ["CLOCKAUCTION_ISED_3800_DIR"],
                                 revenue_cents=dollars_to_cents("1903834500"),
                                 units=4_088, rmse_cap=0.10, rounds_expected=52)
    report("7a replication 3800 MHz", ok, detail)


@pytest.mark.skipif("CLOCKAUCTION_ISED_3500_DIR" not in os.environ,
                    reason="3500 MHz round data not supplied "
                           "(set CLOCKAUCTION_ISED_3500_DIR)")
def test_07b_replication_3500():
    ok, detail = _replicate_band(os.environ["CLOCKAUCTION_ISED_3500_DIR"],
                                 revenue_cents=dollars_to_cents("7924278135"),
                                 units=14_077, rmse_cap=0.02, rounds_expected=54)
    report("7b replication 3500 MHz", ok, detail)


# ---------------------------------------------------------------------------
# 8. extended-auction scenario ranges (optional, needs the same data plus
#    demographics.csv and inventory.csv)


@pytest.mark.skipif("CLOCKAUCTION_ISED_EXTENDED_DIR" not in os.environ,
                    reason="extended-scenario data not supplied "
                           "(set CLOCKAUCTION_ISED_EXTENDED_DIR)")
def test_08_extended_scenarios():
    root = Path(os.environ["CLOCKAUCTION_ISED_EXTENDED_DIR"])
    catalog, raw, config, _ = _load_band(root)
    demographics = load_demographics(root / "demographics.csv")
    inventory = load_inventory(root / "inventory.csv")
    params = CostParameters()
    estimates = estimate_all(raw, catalog, config.increments)
    agents = [BidderAgent(bidder_id=b, model=e.model, space=e.space)
              for b, e in sorted(estimates.items())]

    baseline = run_auction(config, agents)
    licenses = sum(q for b in baseline.final_allocation.values()
                   for q in b.quantities.values())
    base_rev = dollars_to_cents("1463013000")
    ok = (licenses == 3_787
          and abs(baseline.revenue - base_rev) <= 0.02 * base_rev
          and abs(baseline.rounds_used - 51) <= 3)
    details = [f"baseline licenses {licenses}, revenue {baseline.revenue}, "
               f"rounds {baseline.rounds_used}"]

    for key, scenario in SCENARIOS.items():
        table = build_cost_table(catalog, demographics, inventory, scenario,
                                 params, bidders=tuple(sorted(estimates)))
        trace = run_extended_auction(config, agents, table)
        by_tier = {t: 0 for t in TIERS}
        for bundle in trace.final_allocation.values():
            for j, (t, q) in bundle.items():
                by_tier[t] += q
        total = sum(by_tier.values())
        share = (by_tier["medium"] + by_tier["high"]) / total if total else 0.0
        cov = coverage_report(trace, catalog, demographics,
                              params.coverage_targets)
        cov_again = coverage_report(trace, catalog, demographics,
                                    params.coverage_targets)
        ok = ok and dollars_to_cents("1150000000") <= trace.revenue \
            <= dollars_to_cents("1300000000")
        ok = ok and 0.18 <= share <= 0.22
        ok = ok and cov["additional_population"] == cov_again["additional_population"]
        details.append(f"{key}: revenue {trace.revenue}, M+H share {share:.3f}, "
                       f"added pop {cov['additional_population']}")
    report("8 extended-auction scenario ranges", ok, "; ".join(details))
