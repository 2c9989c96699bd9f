"""Physical constants used by the charged-Mie kernel.

Electron mass and speed of light are CODATA values; the remaining constants
match the simulation parameter set used throughout the package.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    e: float = 1.602e-19        # electron charge, C
    k_e: float = 9.0e9          # electrostatic constant, N m^2 / C^2
    k_B: float = 1.38e-23       # Boltzmann constant, J / K
    h_P: float = 1.0546e-34     # reduced Planck constant hbar = h / 2 pi, J s;
                                # whether gamma_s takes h instead is open
    c: float = 2.998e8          # speed of light, m / s
    m_e: float = 9.109e-31      # electron mass, kg


CONSTANTS = PhysicalConstants()
