import math
from dataclasses import replace

import pytest

from coldplate.properties import (MATERIALS, CoolantProps, SolidMaterial,
                                  UnknownMaterialError, get_material,
                                  water_at_reference)


def test_builtin_conductivities():
    assert get_material("copper").thermal_conductivity == 387.6
    assert get_material("aluminum").thermal_conductivity == 202.4
    assert get_material("stainless-steel").thermal_conductivity == 16.27


def test_builtin_densities():
    assert get_material("copper").density == 8978.0
    assert get_material("aluminum").density == 2719.0
    assert get_material("stainless-steel").density == 8030.0


def test_conductivity_ordering():
    k = [get_material(n).thermal_conductivity
         for n in ("copper", "aluminum", "stainless-steel")]
    assert k[0] > k[1] > k[2]


def test_unknown_material_names_missing_key():
    with pytest.raises(UnknownMaterialError) as exc:
        get_material("unobtanium")
    assert "unobtanium" in str(exc.value)
    assert exc.value.known == sorted(MATERIALS)


def test_lookup_is_pure():
    assert get_material("copper") is get_material("copper")
    assert water_at_reference() == water_at_reference()


def test_water_reference_values():
    w = water_at_reference()
    assert w.density == 998.2
    assert w.dynamic_viscosity == 1.003e-3
    assert w.specific_heat == 4182.0
    assert w.thermal_conductivity == 0.6
    assert w.reference_temperature == 20.0


def test_water_prandtl():
    w = water_at_reference()
    # mu*cp/k to machine precision
    assert w.prandtl == w.dynamic_viscosity * w.specific_heat / w.thermal_conductivity
    assert w.prandtl == pytest.approx(6.99, rel=1e-3)


@pytest.mark.parametrize("field", ["thermal_conductivity", "density",
                                   "specific_heat"])
def test_solid_positivity(field):
    values = {"thermal_conductivity": 100.0, "density": 1000.0,
              "specific_heat": 500.0}
    values[field] = -1.0
    with pytest.raises(ValueError):
        SolidMaterial("bad", **values)


def test_coolant_positivity():
    with pytest.raises(ValueError):
        CoolantProps("bad", density=-1.0, dynamic_viscosity=1e-3,
                     specific_heat=4000.0, thermal_conductivity=0.6,
                     reference_temperature=20.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_properties_rejected(value):
    with pytest.raises(ValueError):
        SolidMaterial("bad", thermal_conductivity=value, density=1000.0,
                      specific_heat=500.0)
    with pytest.raises(ValueError):
        replace(water_at_reference(), dynamic_viscosity=value)
    with pytest.raises(ValueError):
        replace(water_at_reference(), reference_temperature=value)
