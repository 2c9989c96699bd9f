"""THz-band attenuation by electrically charged dust.

Extended Mie scattering for charged spheres, altitude-dependent log-normal
dust size spectra, and slant-path link-budget modeling, with a CLI that
emits figure-ready sweep tables.
"""
from .channel import (
    AltitudeProfile,
    LinkGeometry,
    PathLossResult,
    dust_attenuation_coefficient,
    path_loss,
    slant_dust_loss,
)
from .constants import CONSTANTS, PhysicalConstants
from .dustfield import (
    DustLayerModel,
    lognormal_params,
    number_density,
    size_pdf,
    size_support,
)
from .errors import (
    ConfigError,
    DomainError,
    DustmieError,
    RecurrenceOverflowError,
    SingularDenominatorError,
)
from .mie import (
    MieResult,
    ParticleState,
    WaveSpec,
    charged_coefficient,
    collision_frequency,
    extinction_efficiency_array,
    extinction_efficiency_x,
    scale_parameter,
    surface_plasma_frequency,
    surface_potential,
    truncation_order,
)

__version__ = "0.1.0"

__all__ = [
    "AltitudeProfile",
    "CONSTANTS",
    "ConfigError",
    "DomainError",
    "DustLayerModel",
    "DustmieError",
    "LinkGeometry",
    "MieResult",
    "ParticleState",
    "PathLossResult",
    "PhysicalConstants",
    "RecurrenceOverflowError",
    "SingularDenominatorError",
    "WaveSpec",
    "charged_coefficient",
    "collision_frequency",
    "dust_attenuation_coefficient",
    "extinction_efficiency_array",
    "extinction_efficiency_x",
    "lognormal_params",
    "number_density",
    "path_loss",
    "scale_parameter",
    "size_pdf",
    "size_support",
    "slant_dust_loss",
    "surface_plasma_frequency",
    "surface_potential",
    "truncation_order",
]
