"""Phonon cooling via three-wave anti-Stokes interaction with cavity fields:
coupling constants from mode overlaps, deterministic and stochastic dynamics
of the two-phonon + cavity system, closed-form spectra, and cooling ratios."""

__version__ = "0.1.0"

from .core import (
    ParameterError,
    SystemParams,
    ThreeWaveParams,
    ThreeWaveState,
)
from .coupling import (
    GridError,
    ModeField,
    RamanTensor,
    beta_acoustic,
    beta_raman,
    brillouin_raman_tensor,
    curl,
    divergence,
    load_mode_field,
    normalize_mode,
    plane_wave,
    save_mode_field,
)
from .dynamics import (
    CollectiveModes,
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
