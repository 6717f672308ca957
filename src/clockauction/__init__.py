"""Clock-auction toolkit: lower-bound valuation recovery from round-by-round
bid logs, myopic auction replay, and deployment-tier counterfactuals."""

from .core import (Bundle, IncrementSchedule, PriceVector, Product,
                   ProductCatalog, RoundRecord, clock_price, eligibility_cost)
from .engine import (AuctionConfig, AuctionTrace, BidderAgent, best_copies,
                     compare_allocations, myopic_bid, run_auction)
from .errors import (ClockAuctionError, ParseError, SolverError,
                     ValidationError)
from .estimation import (EstimationReport, ValuationModel, bundle_utility,
                         bundle_value, estimate)
from .ingest import (BundleBase, BundleSpace, CopyLadder, RawBidLog,
                     build_bundle_space, build_ladders, enumerate_variants,
                     parse_bid_log, smooth_monotone)
from .pipeline import estimate_all, reconstruct_prices, roundtrip
from .tiered import (TieredValuationAdjustment, coverage_report, deployment_costs,
                     run_extended_auction, tier_overdemand)

__version__ = "0.1.0"
