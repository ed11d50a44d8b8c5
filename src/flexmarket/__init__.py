"""Revenue-optimal dynamic auctions for flexible consumers under stochastic supply."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetExceeded,
    FlexmarketError,
    InconsistentAllocation,
    InfeasibleU,
    MalformedConfig,
    NoNonnegativePoint,
    NoSolution,
    NotApplicable,
    OffGridValue,
    StateSpaceTooLarge,
    TableMismatch,
)
from .market import (  # noqa: F401
    ArrivalDistribution,
    MarketConfig,
    SupplyDistribution,
    TypeDistribution,
    ValuationGrid,
    build_example_config,
    inverse_virtual,
    reserve_price,
    validate_config,
    virtual_valuation,
)
from .config_io import fingerprint, load_config, parse_config  # noqa: F401
from .dp import (  # noqa: F401
    ValueTables,
    build_value_tables,
    continuation_gap,
    stage_value,
    vstar,
)
from .mechanism import (  # noqa: F401
    NOT_SERVED,
    Mechanism,
    MechanismOutcome,
    Report,
    make_reports,
)
from .simulate import (  # noqa: F401
    AuditProbe,
    EpisodeTrace,
    bic_audit,
    build_myopic_tables,
    estimate_revenue,
    expected_virtual_surplus,
    interim_quantities,
    ir_audit,
    sample_episode,
)
