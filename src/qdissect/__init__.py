"""qdissect: exact q-series arithmetic for partition rank/crank dissections.

The package computes, over exact coefficient rings only, the classical
partition statistics (rank and crank residue counts and their deviation
series), the theta and universal-mock-theta building blocks they dissect
into, and a registry of dissection and rank-crank identities that is
verified coefficient-by-coefficient to configurable truncation orders.
"""

from .rings import CyclicLaurent, INTEGER, RATIONAL, cyclic_ring
from .series import Comparison, PrecisionError, Series, SeriesError
from .theta import (
    GSpec,
    J,
    Jbar,
    ThetaAtom,
    eta_atom,
    eta_quotient,
    eulerian_sum,
    mock_g,
    pochhammer_finite,
    pochhammer_infinite,
    theta_j,
    theta_j_sum,
)
from .partitions import (
    count_series,
    deviation_series,
    partition_count,
    partition_series,
    residue_count,
    residue_series,
    scaled_deviation,
)
from .identities import (
    IdentityEntry,
    VerificationReport,
    inequality_check,
    positivity_check,
    report_json,
    support_check,
    verify_all,
    verify_identity,
)
from .registry import build_registry

__version__ = "0.1.0"

__all__ = [
    "CyclicLaurent",
    "INTEGER",
    "RATIONAL",
    "cyclic_ring",
    "Comparison",
    "PrecisionError",
    "Series",
    "SeriesError",
    "GSpec",
    "J",
    "Jbar",
    "ThetaAtom",
    "eta_atom",
    "eta_quotient",
    "eulerian_sum",
    "mock_g",
    "pochhammer_finite",
    "pochhammer_infinite",
    "theta_j",
    "theta_j_sum",
    "count_series",
    "deviation_series",
    "partition_count",
    "partition_series",
    "residue_count",
    "residue_series",
    "scaled_deviation",
    "IdentityEntry",
    "VerificationReport",
    "inequality_check",
    "positivity_check",
    "report_json",
    "support_check",
    "verify_all",
    "verify_identity",
    "build_registry",
    "__version__",
]
