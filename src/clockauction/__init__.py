"""Clock-auction toolkit: lower-bound valuation recovery from round-by-round
bid logs, myopic auction replay, and deployment-tier counterfactuals."""

from .core import (Bundle, IncrementSchedule, PriceVector, Product,
                   ProductCatalog, RoundRecord, aggregate_demand, clock_price,
                   eligibility_cost, payment, posted_price)
from .engine import (AuctionConfig, AuctionTrace, BidderAgent, best_copies,
                     compare_allocations, myopic_bid, run_auction)
from .errors import (ClockAuctionError, ParseError, SolverError,
                     ValidationError)
from .estimation import (EstimationReport, ValuationModel, build_lp,
                         bundle_utility, bundle_value, estimate)
from .ingest import (BundleBase, BundleSpace, CopyLadder, RawBidLog,
                     build_bundle_space, build_ladders, enumerate_variants,
                     extract_bases, parse_bid_log, smooth_monotone)
from .pipeline import estimate_all, reconstruct_prices, roundtrip
from .tiered import (TieredValuationAdjustment, coverage_report,
                     run_extended_auction, tier_overdemand)

__version__ = "0.1.0"
