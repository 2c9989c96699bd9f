"""The library's public surface, pinned the way TestFlagSurface pins the
CLI's: adding or removing a public name or a field of a public value type
is a deliberate edit here."""
import dataclasses

import dustmie
from dustmie import DustLayerModel, MieResult, WaveSpec

PUBLIC_NAMES = [
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


def test_all_is_the_written_list_and_resolves():
    assert sorted(dustmie.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(dustmie, name) is not None


def field_names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def test_value_type_fields():
    assert field_names(WaveSpec) == ["frequency"]
    assert field_names(MieResult) == ["q_ext", "n_max", "converged"]
    assert field_names(DustLayerModel) == ["n0"]
    # the size spectrum is the module functions', not forwarded by the layer
    assert [a for a in dir(DustLayerModel) if not a.startswith("_")] == ["n0"]
