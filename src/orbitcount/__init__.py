"""orbitcount: exact lattice censuses, smoothed orbital counts, and the
matching spectral-side evaluator on the rank-one model space, plus the flat
torus cross-check oracle."""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BudgetError,
    ConvergenceError,
    CoverageError,
    DomainError,
    InputError,
    PoleCollisionError,
    PoleError,
    QuadratureError,
    TailError,
)
from .group import (  # noqa: F401
    CartanFactors,
    cartan_decompose,
    gauge,
    radius,
)
from .lattice import Census, enumerate_naive, enumerate_pruned, shell_counts  # noqa: F401
from .freespace import kernel, product_factor  # noqa: F401
from .special import bessel_k1  # noqa: F401
from .perron import (  # noqa: F401
    SmoothingParams,
    perron_contour_oracle,
    smoothed_geometric_count,
    smoothing_kernel,
)
from .poincare import GrowthModel, SeriesValue, series_eval  # noqa: F401
from .spectral import (  # noqa: F401
    SpectralDatum,
    Spectrum,
    global_contour_oracle,
    per_term,
    residue_pair,
    spectral_side_eval,
)
from .torus import TorusComparison, TorusParams, torus_identity_check  # noqa: F401
