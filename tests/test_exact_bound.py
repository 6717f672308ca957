"""The exact optimum of the oracle MIPs.  `engine.Frame.best`, a knapsack DP
over a frame's options, gives each node's integer optimum, and
`solve_mip(lp, binaries, exact)` dives to the first optimum of the
depth-first search over the nodes that hold the MIP's optimum, bit for
bit, without backtracking.  `engine.choose_base` picks the base from the
exact utilities of the oracles' entries and runs a MIP only where they
cannot tell, with the bid, bit for bit, of the rule that runs every base's
MIP."""

import copy
import dataclasses
import functools
import hashlib
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clockauction.engine as engine
import clockauction.solver as solver
import clockauction.tiered as tiered
from clockauction.core import PriceVector, Product, ProductCatalog, eligibility_cost
from clockauction.engine import BidderAgent, Frame, run_auction, trace_summary, trace_to_jsonl
from clockauction.errors import SolverError
from clockauction.estimation import ValuationModel, initial_eligibility
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder
from clockauction.solver import GE, Solution, solve_mip
from clockauction.synthetic import random_setup
from clockauction.tiered import TIERS, TieredValuationAdjustment, run_extended_auction
from test_solver import brute_force, columns, mip_max, rebound


def random_costs(rng, bidder, catalog, zero):
    """Deployment costs rising with the tier, or zero at every tier."""
    costs = {}
    for a in sorted({p.area_id for p in catalog}):
        per_tier = [0, 0, 0] if zero else sorted(rng.integers(0, 3 * 10**7, size=3))
        costs.update({(bidder, a, t): int(c) for t, c in zip(TIERS, per_tier)})
    return TieredValuationAdjustment(costs)


def oracle_mips(kind: str, count: int, seed: int, max_supply: int = 6) -> list[tuple]:
    """`count` (lp, binaries, exact) triples, the MIPs that the entries of
    random calls of the standard or the tiered oracle pass to `solve_mip`
    when they are resolved.  Half the calls price every
    option at its opening price, as the opening round does, and half the
    tiered calls have zero deployment costs: both tie options.  In
    "tiered-shared" calls 2-3 products of the base share one area, so the
    DP carries open engagements; every product of `random_setup` is alone
    in its area.  The binaries are the MIP's choice columns, its
    (product, choice) keys."""
    rng = np.random.default_rng(seed)
    module = engine if kind == "standard" else tiered
    recorded = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "solve_mip", lambda *a: recorded.append(a) or solve_mip(*a))
        while len(recorded) < count:
            config, (agent,) = random_setup(int(rng.integers(1 << 31)), n_bidders=1,
                                            n_products=int(rng.integers(3, 9)),
                                            max_supply=max_supply, n_bases=2)
            catalog, model = config.catalog, agent.model
            base = agent.space.bases[int(rng.integers(len(agent.space.bases)))]
            if kind == "tiered-shared":
                members = rng.choice(sorted(base.quantities), replace=False,
                                     size=int(rng.integers(2, len(base.quantities) + 1)))
                shared = catalog.get(members[0])  # its area, in its area's class
                catalog = ProductCatalog(tuple(
                    dataclasses.replace(p, area_id=shared.area_id, area_class=shared.area_class)
                    if p.id in members else p for p in catalog))
            ladders = {j: model.ladder(j) for j in base.quantities}
            low = eligibility_cost(base.quantities, catalog)
            high = eligibility_cost({j: levels[-1] for j, levels in ladders.items()}, catalog)
            eligibility = int(rng.integers(low, high + 1))
            opening = rng.random() < 0.5

            def price(j):
                p = catalog.get(j).opening_price
                return p if opening else int(p * rng.uniform(0.5, 3.0))

            if kind == "standard":
                entry = engine.best_copies(
                    base, model, PriceVector({j: price(j) for j in catalog.ids()}),
                    eligibility, catalog, {})
            else:
                adjustment = random_costs(rng, agent.bidder_id, catalog, rng.random() < 0.5)
                entry = tiered._best_tiered_copies(
                    base, model,
                    PriceVector({(j, t): price(j) for j in catalog.ids() for t in TIERS}),
                    eligibility, catalog, agent.bidder_id, adjustment, {})
            entry.resolve()
    return recorded


def bits(sol: solver.Solution):
    """A solution field for field, floats by their hex form."""
    value = sol.objective_value
    return (sol.status, [(name, x.hex()) for name, x in sol.values.items()],
            None if value is None else value.hex())


@pytest.mark.parametrize("kind, seed", [("standard", 11), ("tiered", 12),
                                        ("tiered-shared", 13)])
def test_bound_changes_no_bit(kind, seed):
    """Over 250 oracle MIPs of each kind, the dive gives the answer of the
    backtracking search over the nodes whose integer optimum is the MIP's,
    field for field and bit for bit, and solves the same nodes: it never
    needs to backtrack.  The optimum of a node is brute force's where the
    MIP has at most 12 columns, else the DP's."""
    skipped = 0
    for lp, binaries, exact in oracle_mips(kind, 250, seed):
        bound = functools.partial(brute_force, lp) if len(lp.names) <= 12 else exact
        reference, solved, skips = backtracking(lp, binaries, bound)
        dive, nodes = count_nodes(lp, binaries, exact)
        assert bits(dive) == bits(reference)
        assert nodes == solved
        skipped += skips
    assert skipped > 0


def backtracking(lp, binaries, exact) -> tuple[solver.Solution, int, int]:
    """The reference for `solve_mip`: a depth-first search that backtracks,
    over the nodes whose `exact` optimum is the MIP's.  Each node fixes the
    first binary, in column order, that its vertex leaves fractional, to 0
    and then to 1; a node that holds no optimum is skipped before its
    simplex solve, an infeasible one after it, and the first integral vertex
    is the answer.  Also the counts of nodes solved and skipped."""
    optimum, binary, counts = exact({}), set(binaries), [0, 0]

    def search(node, fixed):
        if fixed and exact(fixed) != optimum:
            counts[1] += 1
            return None
        counts[0] += 1
        sol = solver.solve_lp(node)
        if sol.status != "optimal":
            return None
        values = sol.values
        fractional = [name for name in lp.names if name in binary
                      and abs(values[name] - round(values[name])) > solver.INT_TOL]
        if not fractional:
            return Solution("optimal", {**values, **{name: float(round(values[name]))
                                                     for name in lp.names if name in binary}},
                            sol.objective_value)
        k = lp.names.index(fractional[0])
        for branch in (0.0, 1.0):
            lb, ub = list(node.lb), list(node.ub)
            lb[k] = ub[k] = branch
            found = search(rebound(node, lb, ub), {**fixed, fractional[0]: branch})
            if found is not None:
                return found
        return None

    found = search(copy.copy(lp), {})
    return found or Solution("infeasible", {}, None), *counts


@pytest.mark.parametrize("kind, seed", [("standard", 31), ("tiered", 32),
                                        ("tiered-shared", 33)])
def test_the_search_on_the_choices_is_the_search_on_every_column(kind, seed):
    """An engagement column is 0 or 1 wherever the choices are integral, so
    branching on the choices alone is the search that also branches on the
    engagements, node for node, and none of its nodes fixes an engagement;
    also where every engagement costs nothing, and so may lie anywhere its
    rows allow.  The two answers agree bit for bit but in the engagement
    values, which `solve_mip` rounds only where it branches on them: each
    lies within INT_TOL of the other's 0 or 1."""
    free = 0
    for lp, choices, exact in oracle_mips(kind, 120, seed):
        engagements = [name for name in lp.names if name not in set(choices)]
        free += bool(engagements) and not any(lp.costs[len(choices):])

        def watched(fixed):
            assert set(fixed) <= set(choices), fixed
            return exact(fixed)

        searches = []
        for binaries, bound in ((choices, exact), ([*choices, *engagements], watched)):
            nodes = []
            with pytest.MonkeyPatch.context() as mp:
                real = solver.solve_lp
                mp.setattr(solver, "solve_lp",
                           lambda node, *a: nodes.append((node.lb, node.ub)) or real(node, *a))
                sol = solve_mip(lp, binaries, bound)
            searches.append((nodes, sol))
        (nodes, sol), (reference_nodes, reference) = searches
        assert nodes == reference_nodes
        assert bits(dataclasses.replace(sol, values={k: sol.values[k] for k in choices})) == \
            bits(dataclasses.replace(reference, values={k: reference.values[k] for k in choices}))
        assert all(abs(sol.values[e] - reference.values[e]) <= solver.INT_TOL
                   for e in engagements)
    assert free > 0 or kind == "standard"


def count_nodes(lp, binaries, exact) -> tuple[solver.Solution, int]:
    """`solve_mip`'s answer and its count of simplex solves."""
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        real = solver.solve_lp
        mp.setattr(solver, "solve_lp", lambda *a: calls.append(1) or real(*a))
        return solve_mip(lp, binaries, exact), len(calls)


@pytest.mark.parametrize("kind, seed", [("standard", 21), ("tiered", 22),
                                        ("tiered-shared", 23)])
def test_exact_matches_brute_force_at_every_node(kind, seed):
    """At every node the dive solves, at every fixing it asks the DP about,
    and at random fixings of its choice columns besides, the DP gives the
    integer optimum that brute force over every 0/1 point of the MIP's
    variables gives."""
    rng = np.random.default_rng(seed)
    small = [mip for mip in oracle_mips(kind, 60, seed, max_supply=2)
             if len(mip[0].names) <= 16]
    assert len(small) >= 20
    for lp, binaries, exact in small:
        nodes, fixings = [], []
        with pytest.MonkeyPatch.context() as mp:
            real = solver.solve_lp
            mp.setattr(solver, "solve_lp", lambda node, *a: nodes.append(node) or real(node, *a))
            solve_mip(lp, binaries, lambda fixed: fixings.append(fixed) or exact(fixed))
        fixings += [{name: lb for name, lb, ub in columns(node) if lb == ub} for node in nodes]
        for _ in range(5):
            chosen = rng.choice(len(binaries), size=int(rng.integers(1, 4)), replace=False)
            fixings.append({binaries[k]: float(rng.integers(2)) for k in chosen})
        scale = 1e-9 * (1.0 + sum(abs(c) for c in lp.costs))
        for fixed in fixings:
            want, got = brute_force(lp, fixed), exact(fixed)
            assert got == want or abs(got - want) <= scale, fixed


def every_bundle(frame: Frame, options: dict, blocked: set):
    """`Frame.best`'s answer by brute force over every bundle of `options`,
    one option per product (`itertools.product`): the best utility less the
    costs of the engagements the bundle needs, and the bundle if no other
    attains it; None when no bundle fits."""
    products = sorted(options)
    best, count = None, 0
    for bundle in itertools.product(*[options[j] for j in products]):
        chosen = list(zip(products, bundle))
        points = sum(options[j][c][0] * frame.catalog.get(j).eligibility_points
                     for j, c in chosen)
        if blocked.intersection(chosen) or points > frame.eligibility:
            continue
        engaged = {frame.needs[key] for key in chosen if key in frame.needs}
        value = sum(options[j][c][1] for j, c in chosen) - sum(frame.costs[e] for e in engaged)
        if best is None or value > best[0]:
            best, count = (value, dict(chosen)), 1
        elif value == best[0]:
            count += 1
    return None if best is None else (best[0], best[1] if count == 1 else None)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       kind=st.sampled_from(["standard", "tiered", "tiered-zero-costs"]))
def test_best_matches_every_bundle(seed, kind):
    """On random bases of 1-8 products in at most four areas, so that areas
    often hold several products of the base, `Frame.best` gives the brute
    force's optimum, and its bundle exactly where no other bundle attains
    it; also with random options blocked.  Small whole-cent values make
    ties common."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    catalog = ProductCatalog(tuple(
        Product(id=f"P{i}", area_id=f"A{int(rng.integers(4))}", area_class="urban", supply=5,
                eligibility_points=int(rng.integers(4)), opening_price=0) for i in range(n)))
    tiers = (None,) if kind == "standard" else TIERS
    most = max(1, min(4, round(4000 ** (1 / n)) // len(tiers)))  # levels; 3**8 bundles at most
    levels, needs = {}, {}
    for p in catalog:
        qs = sorted(int(q) for q in rng.choice(np.arange(1, 6), replace=False,
                                               size=int(rng.integers(1, most + 1))))
        levels[p.id] = [((t, q) if t else q, q, float(rng.integers(-2, 5) * 100_00), (p.id, t))
                        for t in tiers for q in qs]
        needs.update({(p.id, (t, q)): (p.area_id, t) for t in tiers if t for q in qs})
    costs = {e: 0.0 if kind == "tiered-zero-costs" else float(rng.integers(0, 3) * 100_00)
             for e in sorted(set(needs.values()))}
    low, high = ([f(q for _, q, *_ in ls) * catalog.get(j).eligibility_points
                  for j, ls in levels.items()] for f in (min, max))
    frame = Frame(levels, 0.0, catalog, int(rng.integers(sum(low) - 1, sum(high) + 2)),
                  needs=needs, costs=costs)
    options = frame.options(PriceVector({key: 0 for ls in levels.values() for *_, key in ls}))
    for blocked in [set()] + [{(j, c) for j in options for c in options[j]
                               if rng.random() < 0.2} for _ in range(3)]:
        assert frame.best(options, blocked) == every_bundle(frame, options, blocked), blocked


def knapsack(*more):
    """max 5 z0 + 4 z1 + 3 z2 with weights 4, 3, 2 under 6, then the rows
    `more`.  Without them the relaxation is fractional, so the dive
    branches, and the optimum is z0 + z2, -8."""
    return mip_max([5.0, 4.0, 3.0], [4.0, 3.0, 2.0], 6.0, more)


def test_knapsack_bound_skips_and_agrees():
    """The root leaves z0 fractional; z0 = 0 holds no optimum, so the dive
    skips it, fixes z0 = 1 and stops at z0 + z2, the backtracking search's
    answer, after the same two simplex solves."""
    lp, binaries = knapsack()
    exact = functools.partial(brute_force, lp)
    (dive, nodes), reference = count_nodes(lp, binaries, exact), backtracking(lp, binaries, exact)
    assert bits(dive) == bits(reference[0])
    assert dive.objective_value == pytest.approx(-8.0)
    assert [dive.values[name] for name in binaries] == [1.0, 0.0, 1.0]
    assert (nodes, *reference[1:]) == (2, 2, 1)


@pytest.mark.parametrize("wrong", [
    pytest.param(lambda true: lambda fixed: true(fixed) + 1.0, id="one-too-high"),
    pytest.param(lambda true: lambda fixed: true(fixed) - 1.0, id="one-too-low"),
    pytest.param(lambda true: lambda fixed: math.inf, id="says-infeasible"),
    pytest.param(lambda true: lambda fixed: true(fixed) if not fixed else math.inf,
                 id="skips-every-child")])
def test_wrong_exact_is_a_solver_error(wrong):
    lp, binaries = knapsack()
    with pytest.raises(SolverError, match="exact optimum"):
        solve_mip(lp, binaries, wrong(lambda fixed: brute_force(lp, fixed)))


def test_exact_feasible_on_an_infeasible_mip_is_a_solver_error():
    lp, binaries = knapsack(({"z0": 1.0, "z1": 1.0, "z2": 1.0}, GE, 4.0))
    assert solve_mip(lp, binaries, functools.partial(brute_force, lp)).status == "infeasible"
    assert solve_mip(lp, binaries, lambda fixed: math.inf).status == "infeasible"
    with pytest.raises(SolverError, match="exact optimum"):
        solve_mip(lp, binaries, lambda fixed: 0.0)


def test_every_frame_bounds_its_mip():
    """A frame's entry names its bid from the DP when one bundle attains the
    optimum, with no MIP, and its resolve branches with the DP's bound,
    whose root value is the MIP's optimum, on 5**3 and 17**3 bundles
    alike."""
    config, _ = random_setup(0, n_bidders=1, n_products=8)
    catalog = config.catalog
    for levels in (5, 17):
        frame = Frame({j: [(q, 1, float(q), j) for q in range(levels)]
                       for j in catalog.ids()[:3]}, 0.0, catalog, 10**6)
        options = frame.options(PriceVector({j: 0 for j in catalog.ids()}))
        bounds = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "solve_mip", lambda *a: bounds.append(a[2]) or solve_mip(*a))
            entry = frame.choice(options, engine.solve_mip)
            assert bounds == [] and entry.solve is not None
            assert entry.bid == dict.fromkeys(catalog.ids()[:3], levels - 1)
            assert entry.resolve().utility == 3.0 * (levels - 1)
        (exact,) = bounds
        assert exact({}) == -3.0 * (levels - 1)


def test_resolve_keeps_the_exact_utility():
    """A MIP bundle below the DP's optimum, which the dive's final check
    accepts within its margin, is a solver error when the entry resolves:
    the entry never takes a lower utility into the run's memo."""
    config, _ = random_setup(0, n_bidders=1, n_products=8)
    catalog = config.catalog
    frame = Frame({j: [(q, 1, float(q), j) for q in range(3)] for j in catalog.ids()[:2]},
                  0.0, catalog, 10**6)
    options = frame.options(PriceVector({j: 0 for j in catalog.ids()}))

    def short(lp, binaries, exact):
        """Levels 2 and 1, worth 3, where levels 2 and 2 are worth 4."""
        picked = {binaries[2], binaries[4]}
        return Solution("optimal", {name: float(name in picked) for name in lp.names}, -3.0)

    entry = frame.choice(options, short)
    assert entry.utility == 4.0
    with pytest.raises(SolverError, match="exact optimum 4.0"):
        entry.resolve()


@pytest.mark.parametrize("auction", ["standard", "tiered", "tiered-zero-costs"])
def test_auctions_with_the_eager_chooser_write_the_same_bytes(auction, monkeypatch):
    """Whole runs write the same trace as the eager rule, which runs every
    base's MIP, led by the frame's DP, whenever it is asked: runs
    whose oracle calls reach best_copies' MIP, tiered runs with deployment
    costs, where the exact optimum names nearly every bid, and tiered runs
    with zero costs, where every tier ties and the winning base's MIP runs."""
    if auction == "standard":
        config, agents = random_setup(0, n_bidders=8, n_products=24, n_bases=3)
        run = lambda: run_auction(config, agents)
    else:
        config, agents = random_setup(0, n_bidders=4, n_products=8, n_bases=2)
        areas = sorted({p.area_id for p in config.catalog})
        adjustment = TieredValuationAdjustment.zero([a.bidder_id for a in agents], areas)
        if auction == "tiered":
            rng = np.random.default_rng(5)
            adjustment = TieredValuationAdjustment({
                (a.bidder_id, area, t): int(c) for a in agents for area in areas
                for t, c in zip(TIERS, sorted(rng.integers(0, 2 * 10**7, size=3)))})
        run = lambda: run_extended_auction(config, agents, adjustment)
    calls = []
    real = solver.solve_lp
    monkeypatch.setattr(solver, "solve_lp", lambda *a: calls.append(1) or real(*a))
    runs = []
    for eager in (False, True):
        if eager:
            monkeypatch.setattr(engine, "choose_base", eager_choose_base)
        calls.clear()
        trace = run()
        text = trace_to_jsonl(trace) + json.dumps(trace_summary(trace), sort_keys=True)
        runs.append((hashlib.sha256(text.encode()).hexdigest(), len(calls)))
    (lazy, lazy_calls), (eager, eager_calls) = runs
    assert lazy == eager
    assert 0 < eager_calls
    assert lazy_calls < eager_calls


# ---------------------------------------------------------------------------
# the base chooser


def eager_choose_base(agent, market, prices, eligibility, memo):
    """The base choice that runs every base's MIP: the first strict maximum
    of the MIPs' utilities, whose bid stands if its utility is >= 0."""
    best_u, best_bid = -math.inf, None
    for base in agent.space.bases:
        entry = market.entry(agent, base, prices, eligibility, memo)
        if entry is not None and entry.resolve().utility > best_u:
            best_bid, best_u = entry.bid, entry.utility
    return best_bid if best_bid is not None and best_u >= 0 else None


def tiered_call(agent, catalog, prices, eligibility, adjustment):
    """The tiered bid at `prices` {product: price, the same at every tier}."""
    at = PriceVector({(j, t): prices[j] for j in catalog.ids() for t in TIERS})
    market = tiered.tiered_market(catalog, adjustment)
    return lambda memo: engine.choose_base(agent, market, at, eligibility, memo)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**31 - 1),
       kind=st.sampled_from(["standard", "tiered", "tiered-zero-costs"]),
       opening=st.booleans())
def test_chooser_bids_as_the_eager_rule(seed, kind, opening):
    """On a random oracle call, at opening prices (where tiers tie) or at
    random ones, the chooser's bid is the eager rule's, bit for bit.  Each
    tiered entry's exact utility is its MIP's utility, and a bid it knows
    is the MIP's bid."""
    rng = np.random.default_rng(seed)
    config, (agent,) = random_setup(seed, n_bidders=1, n_products=int(rng.integers(3, 7)),
                                    n_bases=3)
    catalog = config.catalog
    low = min(eligibility_cost(base.quantities, catalog) for base in agent.space.bases)
    eligibility = int(rng.integers(low, initial_eligibility(agent.space, catalog) + 1))
    prices = {j: int(catalog.get(j).opening_price * (1.0 if opening else rng.uniform(0.5, 3.0)))
              for j in catalog.ids()}
    if kind == "standard":
        market = engine.standard_market(catalog)
        bid = lambda memo: engine.choose_base(agent, market, PriceVector(prices), eligibility,
                                              memo)
    else:
        adjustment = random_costs(rng, agent.bidder_id, catalog, kind == "tiered-zero-costs")
        bid = tiered_call(agent, catalog, prices, eligibility, adjustment)
        at = PriceVector({(j, t): prices[j] for j in catalog.ids() for t in TIERS})
        for base in agent.space.bases:
            entry = tiered._best_tiered_copies(base, agent.model, at, eligibility, catalog,
                                               agent.bidder_id, adjustment, {})
            if entry is None:
                continue
            exact, known = entry.utility, entry.bid
            entry.resolve()
            assert entry.utility == exact
            assert known is None or repr(known) == repr(entry.bid)
    got = bid({})
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "choose_base", eager_choose_base)
        want = bid({})
    assert repr(got) == repr(want)


def one_copy_agent(values):
    """A bidder whose base i is one copy of product P{i}, alone in its area,
    with base value values[i]; every product opens at 100_00 cents."""
    n = range(len(values))
    catalog = ProductCatalog(products=tuple(
        Product(id=f"P{i}", area_id=f"A{i}", area_class="urban", supply=1,
                eligibility_points=1, opening_price=100_00) for i in n))
    model = ValuationModel("X", {f"X/base{i}": v for i, v in zip(n, values)},
                           {(f"P{i}", 1): 0.0 for i in n})
    space = BundleSpace("X", bases=tuple(BundleBase(f"X/base{i}", {f"P{i}": 1}) for i in n),
                        ladders={f"P{i}": CopyLadder(f"P{i}", (1,)) for i in n}, observed={})
    return catalog, BidderAgent("X", model, space)


@pytest.mark.parametrize("values, costs, mips", [
    pytest.param([200_00, 200_00], (0, 0, 0), 1, id="exact-tie-resolves-the-lower-base"),
    pytest.param([100_00, 50_00], (0, 0, 0), 1, id="exact-zero-bids"),
    pytest.param([300_00, 200_00], (0, 0, 0), 1, id="tied-tiers-resolve-the-winner"),
    pytest.param([300_00, 200_00], (0, 1_00, 2_00), 0, id="known-bid-runs-no-mip")])
def test_chooser_runs_the_mips_it_needs(values, costs, mips, monkeypatch):
    """Only the winning base resolves, and only when its tiers tie: the
    lower-indexed base on an exact tie between bases, a winner at utility
    exactly 0 (which bids), and a clear winner run its own MIP only; one
    with a known bid runs none.  Each bids what the eager rule bids."""
    catalog, agent = one_copy_agent(values)
    adjustment = TieredValuationAdjustment({
        ("X", p.area_id, t): c for p in catalog for t, c in zip(TIERS, costs)})
    bid = tiered_call(agent, catalog, {j: 100_00 for j in catalog.ids()}, 2, adjustment)
    ran = []
    real = tiered.solve_mip
    monkeypatch.setattr(tiered, "solve_mip", lambda *a: ran.append(1) or real(*a))
    memo = {}
    got = bid(memo)
    assert got, "the winner's utility is >= 0, so it bids"
    assert len(ran) == mips
    assert sum(entry.solve is None for entry in memo.values()) == mips
    monkeypatch.setattr(engine, "choose_base", eager_choose_base)
    assert repr(got) == repr(bid({}))


def test_tied_entry_resolves_with_the_bound(monkeypatch):
    """An entry whose tiers tie runs no MIP when it is made; its resolve runs
    one, bounded by the DP at the entry's optimum, and keeps its utility."""
    catalog, agent = one_copy_agent([300_00])
    (base,) = agent.space.bases
    adjustment = TieredValuationAdjustment.zero(["X"], ["A0"])
    prices = PriceVector({("P0", t): 100_00 for t in TIERS})
    ran = []
    real = tiered.solve_mip
    monkeypatch.setattr(tiered, "solve_mip", lambda *a: ran.append(a[2]) or real(*a))
    entry = tiered._best_tiered_copies(base, agent.model, prices, 1, catalog, "X", adjustment,
                                       {})
    assert ran == [] and entry.solve is not None and entry.bid is None
    assert entry.utility == 200_00
    entry.resolve()
    (exact,) = ran
    assert exact({}) == 300_00 - entry.utility
    assert entry.utility == 200_00 and entry.bid["P0"][1] == 1
