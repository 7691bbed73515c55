"""PolyMem core: schemes, patterns, AGU, shuffles, banks, and the facade.

This subpackage is the paper's primary contribution — a functional model of
the polymorphic parallel memory of Fig. 3, independent of any particular
hardware substrate.
"""

from .addressing import AddressingFunction
from .agu import AGU, AccessRequest
from .banks import BankArray
from .config import KB, MB, PolyMemConfig
from .conflict import AnchorDomain, ConflictAnalyzer, conflict_banks, is_conflict_free
from .exceptions import (
    AddressError,
    CapacityError,
    ConfigurationError,
    ConflictError,
    PatternError,
    PolyMemError,
    PortError,
    ScheduleError,
    SchemeError,
    SimulationError,
)
from .patterns import AccessPattern, PatternKind, pattern_offsets
from .plan import (
    AccessPlan,
    AccessTrace,
    compile_plan,
    plan_cache_stats,
)
from .polymem import PolyMem
from .regions import Region, RegionMap
from .schemes import SCHEME_SPECS, Scheme, all_schemes, module_assignment
from .shuffle import (
    BenesNetwork,
    FullCrossbar,
    InverseShuffle,
    Shuffle,
    route_memo,
)

__all__ = [
    "AGU",
    "AccessPattern",
    "AccessPlan",
    "AccessRequest",
    "AccessTrace",
    "AddressError",
    "AddressingFunction",
    "AnchorDomain",
    "BankArray",
    "BenesNetwork",
    "CapacityError",
    "ConfigurationError",
    "ConflictAnalyzer",
    "ConflictError",
    "FullCrossbar",
    "InverseShuffle",
    "KB",
    "MB",
    "PatternError",
    "PatternKind",
    "PolyMem",
    "PolyMemConfig",
    "PolyMemError",
    "Region",
    "RegionMap",
    "PortError",
    "SCHEME_SPECS",
    "ScheduleError",
    "Scheme",
    "SchemeError",
    "Shuffle",
    "SimulationError",
    "all_schemes",
    "compile_plan",
    "conflict_banks",
    "is_conflict_free",
    "module_assignment",
    "pattern_offsets",
    "plan_cache_stats",
    "route_memo",
]
