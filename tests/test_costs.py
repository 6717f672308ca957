import pytest

from clockauction.core import Product, ProductCatalog
from clockauction.costs import (DEFAULT_COVERAGE_TARGETS, SCENARIOS, AreaStats,
                                CostParameters, CostScenario, TowerInventory,
                                WeightingRefs, build_cost_table,
                                cost_table_from_csv, cost_table_to_csv,
                                deployment_cost, load_demographics,
                                load_inventory, towers_needed)
from clockauction.errors import ParseError, ValidationError
from clockauction.tiered import TIERS, TieredValuationAdjustment


class TestTowersNeeded:
    def test_ceil_of_covered_population(self):
        # 100,000 * 0.5 / 20,000 = 2.5 -> 3 towers, minus 1 existing
        assert towers_needed(100_000, 0.5, 1, 20_000) == 2

    def test_existing_inventory_covers(self):
        assert towers_needed(100_000, 0.5, 3, 20_000) == 0
        assert towers_needed(100_000, 0.5, 10, 20_000) == 0

    def test_zero_population(self):
        assert towers_needed(0, 0.7, 0, 20_000) == 0

    def test_target_out_of_range(self):
        with pytest.raises(ValidationError):
            towers_needed(100_000, 1.5, 0, 20_000)


class TestCostParameters:
    def test_midpoint_tower_cost(self):
        params = CostParameters()
        assert params.tower_cost_mid == 32_332_850.0  # cents
        assert params.tower_cost("low") == 28_617_600.0
        assert params.tower_cost("high") == 36_048_100.0

    def test_adjustment_factor(self):
        params = CostParameters()
        assert params.adjustment_factor == pytest.approx(1.1 * 1.1 * 1.3)

    def test_fibre_rate_is_adjusted(self):
        params = CostParameters()
        assert params.fibre_rate() == pytest.approx(5_000_000 * 1.1 * 1.1 * 1.3)

    def test_tower_adjustment_toggle(self):
        pre = CostParameters(tower_costs_post_adjustment=False)
        post = CostParameters()
        assert pre.tower_cost("mid") == pytest.approx(
            post.tower_cost("mid") * pre.adjustment_factor)


def flat_refs():
    return WeightingRefs(density=1_000.0, area_km2=100.0)


def reference_area(cls="urban", population=100_000, land=100.0, area_id="A1"):
    return AreaStats(area_id, cls, population, land)


class TestDeploymentCost:
    def scenario(self, level="mid", weighting="none"):
        return CostScenario("t", level, weighting)

    def inventory(self, existing=0):
        return TowerInventory({("X", "A1"): existing})

    def test_zero_deficit_zero_cost(self):
        area = reference_area()
        cost = deployment_cost(area, "X", "high", self.scenario(),
                               CostParameters(), self.inventory(10), flat_refs())
        assert cost == 0

    def test_tower_plus_fibre_decomposition(self):
        # urban, 60% target of 100,000 -> 3 towers needed, spacing 1 km
        area = reference_area()
        params = CostParameters()
        cost = deployment_cost(area, "X", "high", self.scenario(),
                               params, self.inventory(0), flat_refs())
        expected = 3 * params.tower_cost_mid + 3 * 1.0 * params.fibre_rate()
        assert cost == int(round(expected))

    def test_monotone_in_tier(self):
        area = reference_area(cls="rural", population=500_000, land=2_000.0)
        params = CostParameters()
        costs = [deployment_cost(area, "X", t, self.scenario(), params,
                                 self.inventory(2), flat_refs()) for t in TIERS]
        assert costs == sorted(costs)

    def test_fibre_component_linear_in_rate(self):
        area = reference_area(cls="remote", population=200_000, land=5_000.0)
        base = CostParameters()
        doubled = CostParameters(fibre_cost_per_km=base.fibre_cost_per_km * 2)
        c1 = deployment_cost(area, "X", "high", self.scenario(), base,
                             self.inventory(0), flat_refs())
        c2 = deployment_cost(area, "X", "high", self.scenario(), doubled,
                             self.inventory(0), flat_refs())
        towers = towers_needed(200_000, 0.2, 0, 20_000)
        fibre = towers * 15.0 * base.fibre_rate()
        assert c2 - c1 == pytest.approx(fibre, abs=1.0)

    def test_population_weighting_inflates_sparse_areas(self):
        # density 20 vs reference 1,000: ratio clamps at the 2.0 ceiling
        sparse = reference_area(population=2_000, land=100.0)
        params = CostParameters()
        plain = deployment_cost(sparse, "X", "high", self.scenario(), params,
                                self.inventory(0), flat_refs())
        weighted = deployment_cost(sparse, "X", "high",
                                   self.scenario(weighting="population"),
                                   params, self.inventory(0), flat_refs())
        towers = towers_needed(2_000, 0.6, 0, 20_000)
        fibre = towers * 1.0 * params.fibre_rate()
        assert weighted - plain == pytest.approx(fibre, abs=1.0)  # (2 - 1) * fibre

    def test_area_weighting_inflates_large_areas(self):
        big = reference_area(land=400.0)  # 4x the reference, clamps at 2
        params = CostParameters()
        plain = deployment_cost(big, "X", "high", self.scenario(), params,
                                self.inventory(0), flat_refs())
        weighted = deployment_cost(big, "X", "high",
                                   self.scenario(weighting="area"),
                                   params, self.inventory(0), flat_refs())
        assert weighted > plain

    def test_combined_weighting_multiplies(self):
        area = reference_area(population=2_000, land=400.0)
        params = CostParameters()
        refs = flat_refs()
        inv = self.inventory(0)
        towers = towers_needed(2_000, 0.6, 0, 20_000)
        fibre = towers * 1.0 * params.fibre_rate()
        plain = deployment_cost(area, "X", "high", self.scenario(), params, inv, refs)
        both = deployment_cost(area, "X", "high",
                               self.scenario(weighting="both"), params, inv, refs)
        # both ratios clamp at 2.0, so the fibre part is multiplied by 4
        assert both - plain == pytest.approx(3 * fibre, abs=1.0)


class TestCostTable:
    def catalog(self):
        return ProductCatalog(products=(
            Product("P1", "A1", "urban", 3, 1, 100_00),
            Product("P2", "A2", "rural", 2, 1, 100_00)))

    def demographics(self):
        return {"A1": AreaStats("A1", "urban", 150_000, 120.0),
                "A2": AreaStats("A2", "rural", 30_000, 1_500.0)}

    def test_build_and_round_trip(self, tmp_path):
        inv = TowerInventory({("X", "A1"): 1, ("X", "A2"): 0})
        table = build_cost_table(self.catalog(), self.demographics(), inv,
                                 SCENARIOS["none"], CostParameters())
        assert set(table.costs) == {("X", a, t) for a in ("A1", "A2") for t in TIERS}
        text = cost_table_to_csv(table)
        (tmp_path / "costs.csv").write_text(text)
        assert cost_table_to_csv(cost_table_from_csv(tmp_path / "costs.csv")) == text
        # deterministic bytes on a rebuild
        again = build_cost_table(self.catalog(), self.demographics(), inv,
                                 SCENARIOS["none"], CostParameters())
        assert cost_table_to_csv(again) == text

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        """A field holding a `,` or a `"` is quoted, so the table reads back
        as written; plain fields are written bare."""
        table = TieredValuationAdjustment(
            {(bidder, area, tier): 100 * k for bidder in ("Bell, Inc", 'B"2', "plain")
             for area in ('Area "9"', "A1,A2") for k, tier in enumerate(TIERS)})
        text = cost_table_to_csv(table)
        assert f'\nplain,"A1,A2",{TIERS[0]},0\n' in text
        (tmp_path / "costs.csv").write_text(f"# manifest deadbeef\n{text}")
        assert cost_table_from_csv(tmp_path / "costs.csv") == table

    def test_saturated_incumbent_gets_zero_table(self):
        inv = TowerInventory({("X", "A1"): 50, ("X", "A2"): 50})
        table = build_cost_table(self.catalog(), self.demographics(), inv,
                                 SCENARIOS["combined"], CostParameters())
        assert all(c == 0 for c in table.costs.values())

    def test_cost_above_2_53_cents_rejected(self):
        """Many towers at one tier can cost more cents than a float holds
        exactly; the table names the entry instead of writing the cost."""
        crowd = {a: AreaStats(a, "urban", 2**53, 1.0) for a in ("A1", "A2")}
        inv = TowerInventory({("X", "A1"): 0, ("X", "A2"): 0})
        with pytest.raises(ValidationError, match=r"\(X, A1, low\): deployment cost above 2\*\*53"):
            build_cost_table(self.catalog(), crowd, inv, SCENARIOS["none"],
                             CostParameters(pop_per_tower=1))

    def test_missing_demographics_rejected(self):
        inv = TowerInventory({("X", "A1"): 0})
        with pytest.raises(ValidationError):
            build_cost_table(self.catalog(), {"A1": self.demographics()["A1"]},
                             inv, SCENARIOS["none"], CostParameters())

    def test_scenario_catalog(self):
        assert set(SCENARIOS) == {"none", "pop-high", "area-mid", "combined"}
        assert SCENARIOS["pop-high"].base_cost_level == "high"
        assert SCENARIOS["combined"].weighting == "both"


class TestInventoryAndLoaders:
    def test_missing_inventory_warns_and_assumes_zero(self):
        inv = TowerInventory({("X", "A1"): 2})
        with pytest.warns(UserWarning):
            assert inv.existing("X", "A9") == 0
        assert inv.existing("X", "A1") == 2

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            TowerInventory({("X", "A1"): -1})

    def test_load_demographics(self, tmp_path):
        path = tmp_path / "demo.csv"
        path.write_text("area_id,area_class,population,land_area_km2\n"
                        "A1,urban,150000,120.5\n")
        demo = load_demographics(path)
        assert demo["A1"].population == 150_000
        assert demo["A1"].density() == pytest.approx(150_000 / 120.5)

    def test_load_inventory(self, tmp_path):
        path = tmp_path / "inv.csv"
        path.write_text("bidder_id,area_id,tower_count\nX,A1,4\n")
        assert load_inventory(path).existing("X", "A1") == 4

    def test_loader_header_errors(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        with pytest.raises(ParseError):
            load_demographics(bad)
        with pytest.raises(ParseError):
            load_inventory(bad)

    def test_default_targets_monotone_in_tier(self):
        for cls in ("metro", "urban", "rural", "remote"):
            targets = [DEFAULT_COVERAGE_TARGETS[(cls, t)] for t in TIERS]
            assert targets == sorted(targets)
