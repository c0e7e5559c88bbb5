"""Phonon cooling via three-wave anti-Stokes interaction with cavity fields:
coupling constants from mode overlaps, deterministic and stochastic dynamics
of the two-phonon + cavity system, closed-form spectra, and cooling ratios."""

__version__ = "0.1.0"

from .core import (
    ParameterError,
    PhononModeSpec,
    SystemParams,
    ThreeWaveParams,
    ThreeWaveState,
    system_from_modes,
    validate,
    validate_three_wave,
)
from .coupling import (
    BrillouinLinear,
    BulkOptical,
    ConfinedFiber,
    GridError,
    ModeField,
    RamanTensor,
    beta_acoustic,
    beta_raman,
    bimodal_window,
    box_sine_mode,
    brillouin_raman_tensor,
    bulk_raman_scalar,
    curl,
    dispersion,
    divergence,
    gaussian_transverse,
    load_mode_field,
    normalize_mode,
    plane_wave,
    save_mode_field,
)
from .dynamics import (
    AdiabaticReduction,
    CollectiveModes,
    DriftMatrix,
    IntegrationError,
    Trajectory,
    adiabatic_reduce,
    collective_rates,
    drift_matrix,
    evolve_three_wave,
)
from .spectra import (
    SingularityError,
    SpectrumCurve,
    antistokes_spectrum,
    cooling_ratio,
    cooling_ratio_adiabatic,
    d_of_omega,
    occupancy,
    phonon_spectrum,
    save_curve,
)
from .langevin import (
    CovarianceError,
    EnsembleStats,
    WelchSpectra,
    periodogram,
    simulate_ensemble,
    step_covariance,
)
