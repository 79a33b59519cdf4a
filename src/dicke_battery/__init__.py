"""Exact-diagonalization toolkit for collective charging of a Dicke quantum battery.

N two-level systems share one resonant cavity mode prepared with n
photons.  The excitation-conserving coupling confines the dynamics to a
(min(N, n) + 1)-dimensional ladder, which this package diagonalizes
exactly to reproduce the universal flip time pi / (2 g sqrt(n)), the
sqrt(N) collective charging advantage, and the entanglement diagnostics
of the photon-starved regimes.
"""

from .analysis import (
    FlipDetectionError,
    FlipSummary,
    ProtocolReport,
    compare_protocols,
    detect_flip_time,
    flip_summary,
    universal_flip_time,
)
from .dynamics import (
    OBSERVABLE_NAMES,
    ObservableSeries,
    SimulationConfig,
    evolve,
    run,
    sector_operator,
)
from .hilbert import SectorBasis, SectorState, build_sector, initial_state, target_state
from .observables import (
    SpinMoments,
    pairwise_concurrence,
    single_spin_density,
    spin_moments,
    two_spin_density,
    von_neumann_entropy,
)
from .operators import (
    ModelParams,
    TridiagonalOperator,
    exact_tc_matrix,
    large_n_matrix,
)
from .spectra import (
    EigenSolverError,
    EigenSystem,
    analytic_eigenvalues,
    analytic_eigenvectors,
    eigendecompose,
    pseudo_hermite_family,
)

__version__ = "0.1.0"
