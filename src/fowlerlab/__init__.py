"""Numerical laboratory for a two-component critical Emden-Fowler system.

Integrates the logarithmic-radial ODE system with a conserved-energy audit,
evaluates the radial Pohozaev functionals, classifies orbits by the sign of
the invariant, and drives reproducible batch experiments.
"""

from . import errors
from .classify import (
    BLOW_UP,
    BOTH_SINGULAR,
    ENTIRE,
    INCONCLUSIVE,
    SEMI_SINGULAR,
    SIGN_CHANGING,
    Classification,
    classify,
)
from .dynamics import (
    Event,
    IntegratorSettings,
    Trajectory,
    integrate,
)
from .experiments import (
    ExperimentReport,
    InitialData,
    SamplerSpec,
    semi_singular_search,
    shoot_entire,
    shoot_settings,
    sign_change_experiment,
    sweep,
)
from .invariants import (
    InvariantReport,
    monitor,
    pohozaev_system,
    psi,
    to_radial,
)
from .params import (
    CouplingSolution,
    SystemParams,
    bubble_amplitude,
    bubble_fowler,
    bubble_radial,
    cylinder_amplitudes,
    cylinder_state,
    make_params,
    scalar_bubble_radial,
    solve_coupling,
)
from .serialize import (
    export_csv,
    export_plot_data,
    load_trajectory,
    save_trajectory,
)
from .state import FowlerState

__version__ = "0.1.0"

__all__ = [
    "BLOW_UP",
    "BOTH_SINGULAR",
    "ENTIRE",
    "INCONCLUSIVE",
    "SEMI_SINGULAR",
    "SIGN_CHANGING",
    "Classification",
    "CouplingSolution",
    "Event",
    "ExperimentReport",
    "FowlerState",
    "InitialData",
    "IntegratorSettings",
    "InvariantReport",
    "SamplerSpec",
    "SystemParams",
    "Trajectory",
    "bubble_amplitude",
    "bubble_fowler",
    "bubble_radial",
    "classify",
    "cylinder_amplitudes",
    "cylinder_state",
    "errors",
    "export_csv",
    "export_plot_data",
    "integrate",
    "load_trajectory",
    "make_params",
    "monitor",
    "pohozaev_system",
    "psi",
    "save_trajectory",
    "scalar_bubble_radial",
    "semi_singular_search",
    "shoot_entire",
    "shoot_settings",
    "sign_change_experiment",
    "solve_coupling",
    "sweep",
    "to_radial",
]
