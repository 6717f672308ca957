"""Seeded inputs and CLI steps for the benchmark's two workloads.

Each workload starts from one master instance, drawn once with the package's
own synthetic generator from a fixed MASTER_SEED at the workload's size.  The
seed then makes its own input from it: it relabels bidders and products and
rescales every money amount by one common factor.  That changes every input
byte, the catalog order and the solvers' branching order, but not the shape
of the auction, so the work a run does stays close across seeds.  Fresh
random instances of one size differ several-fold in solver work, which would
swamp any change in the program.

Files are written with the package's writers where it has one
(`write_bid_log`, `model_to_json`, `cost_table_to_csv`); catalog,
demographics and inventory CSVs, which it only reads, are written here in the
format its loaders read.  The program under test receives only these files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clockauction import costs as costmod
from clockauction.core import (IncrementSchedule, Product, ProductCatalog,
                               cents_to_dollars)
from clockauction.engine import AuctionConfig, AuctionTrace, BidderAgent, run_auction
from clockauction.estimation import ValuationModel, model_to_json
from clockauction.ingest import BundleBase, BundleSpace, CopyLadder, write_bid_log
from clockauction.pipeline import trace_to_bidlog
from clockauction.synthetic import random_setup

WORKLOADS = ("tiered-auction", "estimate-log")

MASTER_SEED = 2512
DELTA = 0.1          # the CLI's default price increment when no config is given
MAX_ROUNDS = 200     # the CLI's default max_rounds

# (bidders, products) per workload; every bidder has three bundle bases.
SIZES = {
    "full": {"tiered-auction": (6, 16), "estimate-log": (80, 160)},
    "tiny": {"tiered-auction": (3, 4), "estimate-log": (4, 8)},
}
N_BASES = 3

# people and km^2 ranges per area class for the generated demographics
POPULATION = {"metro": (100_000, 300_000), "urban": (40_000, 150_000),
              "rural": (10_000, 60_000), "remote": (2_000, 20_000)}
LAND_KM2 = {"metro": (50, 500), "urban": (200, 2_000),
            "rural": (2_000, 20_000), "remote": (10_000, 100_000)}
MAX_TOWERS = 4


@dataclass
class Instance:
    workload: str
    dir: Path
    catalog: ProductCatalog
    agents: list[BidderAgent]
    files: dict[str, Path]
    sizes: dict[str, int]
    truth: AuctionTrace | None = None   # estimate-log: the auction behind bids.csv


def _relabel(catalog: ProductCatalog, agents: list[BidderAgent],
             rng: np.random.Generator, scale: float):
    """Seeded relabelling of products, areas and bidders and rescaling of
    money; returns (catalog, agents, area map, bidder map)."""
    ids = catalog.ids()
    perm = rng.permutation(len(ids))
    pid = {j: f"P{perm[i]:03d}" for i, j in enumerate(ids)}
    aid = {p.area_id: f"A{perm[i]:03d}" for i, p in enumerate(catalog)}
    products = sorted(
        (Product(id=pid[p.id], area_id=aid[p.area_id], area_class=p.area_class,
                 supply=p.supply, eligibility_points=p.eligibility_points,
                 opening_price=max(1, round(p.opening_price / 100 * scale)) * 100)
         for p in catalog), key=lambda p: p.id)
    bperm = rng.permutation(len(agents))
    bid = {a.bidder_id: f"B{bperm[k]:03d}" for k, a in enumerate(agents)}
    new_agents = []
    for agent in agents:
        bidder = bid[agent.bidder_id]
        bases, base_values = [], {}
        for n, base in enumerate(agent.space.bases):
            base_id = f"{bidder}/base{n}"
            bases.append(BundleBase(base_id, {pid[j]: q
                                              for j, q in base.quantities.items()}))
            base_values[base_id] = float(round(
                agent.model.base_values[base.base_id] * scale))
        marginals = {(pid[j], lvl): float(round(v * scale))
                     for (j, lvl), v in agent.model.marginals.items()}
        ladders = {pid[j]: CopyLadder(pid[j], lad.levels)
                   for j, lad in agent.space.ladders.items()}
        model = ValuationModel(bidder_id=bidder, base_values=base_values,
                               marginals=marginals)
        space = BundleSpace(bidder_id=bidder, bases=tuple(bases),
                            ladders=ladders, observed={})
        new_agents.append(BidderAgent(bidder_id=bidder, model=model, space=space))
    new_agents.sort(key=lambda a: a.bidder_id)
    return ProductCatalog(products=tuple(products)), new_agents, aid, bid


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_catalog(catalog: ProductCatalog, path: Path) -> None:
    _write_csv(path, ["product_id", "area_id", "area_class", "supply",
                      "eligibility_points", "opening_price_cad"],
               ([p.id, p.area_id, p.area_class, p.supply, p.eligibility_points,
                 cents_to_dollars(p.opening_price)] for p in catalog))


def _write_models(agents: list[BidderAgent], models_dir: Path) -> None:
    models_dir.mkdir(parents=True, exist_ok=True)
    for agent in agents:
        (models_dir / f"model_{agent.bidder_id}.json").write_text(
            model_to_json(agent.model, agent.space), encoding="utf-8")


def auction_config(catalog: ProductCatalog) -> AuctionConfig:
    """The auction settings the CLI uses when given no config file."""
    return AuctionConfig(catalog=catalog, increments=IncrementSchedule.constant(DELTA),
                         max_rounds=MAX_ROUNDS)


def generate(workload: str, seed: int, size: str, out: Path) -> Instance:
    """Write the seed's input files for one workload into `out`."""
    n_bidders, n_products = SIZES[size][workload]
    config, master_agents = random_setup(MASTER_SEED, n_bidders=n_bidders,
                                         n_products=n_products, n_bases=N_BASES)
    rng = np.random.default_rng(seed)
    scale = float(rng.uniform(0.8, 1.25))
    catalog, agents, aid, bid = _relabel(config.catalog, master_agents, rng, scale)
    out.mkdir(parents=True, exist_ok=True)
    files = {"catalog": out / "catalog.csv", "models": out / "models"}
    _write_catalog(catalog, files["catalog"])
    _write_models(agents, files["models"])
    inst = Instance(workload=workload, dir=out, catalog=catalog,
                    agents=agents, files=files,
                    sizes={"bidders": len(agents), "products": len(catalog)})

    if workload == "tiered-auction":
        _write_cost_inputs(inst, config.catalog, aid, bid, scale)
    elif workload == "estimate-log":
        truth = run_auction(auction_config(catalog), agents)
        if truth.truncated:
            raise RuntimeError(f"truth auction for seed {seed} hit max_rounds")
        log = trace_to_bidlog(truth)
        files["bids"] = out / "bids.csv"
        write_bid_log(log, files["bids"])
        inst.truth = truth
        inst.sizes.update(rows=len(log.rows), rounds=truth.rounds_used)
    return inst


def _write_cost_inputs(inst: Instance, master_catalog: ProductCatalog,
                       aid: dict[str, str], bid: dict[str, str], scale: float) -> None:
    """Demographics and inventory (fixed by the master draw, relabelled) and
    the combined-scenario cost table built from them with money rescaled."""
    rng = np.random.default_rng(MASTER_SEED + 1)
    demo_rows = []
    for p in master_catalog:
        lo, hi = POPULATION[p.area_class]
        klo, khi = LAND_KM2[p.area_class]
        demo_rows.append([aid[p.area_id], p.area_class, int(rng.integers(lo, hi + 1)),
                          float(round(rng.uniform(klo, khi), 1))])
    inv_rows = []
    for bidder in bid.values():
        for p in master_catalog:
            inv_rows.append([bidder, aid[p.area_id], int(rng.integers(0, MAX_TOWERS + 1))])
    files = inst.files
    files["demographics"] = inst.dir / "demographics.csv"
    files["inventory"] = inst.dir / "inventory.csv"
    files["cost_table"] = inst.dir / "cost_table.csv"
    _write_csv(files["demographics"], ["area_id", "area_class", "population",
                                       "land_area_km2"], sorted(demo_rows))
    _write_csv(files["inventory"], ["bidder_id", "area_id", "tower_count"],
               sorted(inv_rows))
    default = costmod.CostParameters()
    params = costmod.CostParameters(
        tower_cost_low=round(default.tower_cost_low * scale),
        tower_cost_high=round(default.tower_cost_high * scale),
        fibre_cost_per_km=round(default.fibre_cost_per_km * scale))
    table = costmod.build_cost_table(
        inst.catalog, costmod.load_demographics(files["demographics"]),
        costmod.load_inventory(files["inventory"]), costmod.SCENARIOS["combined"],
        params, bidders=tuple(a.bidder_id for a in inst.agents))
    # cost_table_to_csv, not the cost-table command: that command's
    # "# manifest" first line is rejected by simulate-extended
    files["cost_table"].write_text(costmod.cost_table_to_csv(table), encoding="utf-8")


def steps(inst: Instance, out: Path) -> list[tuple[str, list[str], Path]]:
    """(step name, CLI argv, output directory) for one run of the workload."""
    f = {k: str(v) for k, v in inst.files.items()}
    if inst.workload == "tiered-auction":
        d = out / "tiered"
        return [("simulate-extended",
                 ["simulate-extended", "--catalog", f["catalog"], "--models", f["models"],
                  "--cost-table", f["cost_table"], "--demographics", f["demographics"],
                  "--out", str(d)], d)]
    est, rep = out / "estimate", out / "replay"
    return [("estimate", ["estimate", "--catalog", f["catalog"], "--bids", f["bids"],
                          "--out", str(est)], est),
            ("simulate", ["simulate", "--catalog", f["catalog"], "--models", str(est),
                          "--out", str(rep)], rep)]
