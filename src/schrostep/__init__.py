"""Dispersive evolution over piecewise-constant potentials.

Explicit contour-integral solutions of i psi_t = -psi_xx + alpha(x) psi
for profiles alpha(x) with finitely many jumps, nondimensionalized so the
mass is 1/2 in the usual convention (m = 1, hbar = 1 with the Hamiltonian
-d^2/dx^2 + alpha).
"""

from .asymptotics import ForbiddenConeError, leading_order, ray_bracket
from .general import GeneralSolver, interface_system, reduced_system, solve_unknowns
from .interface_map import InterfaceMap
from .kernels import BranchCutError, PiecewisePotential, SolutionSample, nu, omega
from .step import StepSolver, mirrored, sigma, step_coefficients
from .transforms import InitialCondition, free_term, hat_transform, whole_line_hat
from .well import WellSolver, bound_states, scattering_a, trig_denominator

__version__ = "0.1.0"

__all__ = [
    "BranchCutError", "ForbiddenConeError", "GeneralSolver",
    "InitialCondition", "InterfaceMap", "PiecewisePotential",
    "SolutionSample", "StepSolver", "WellSolver", "bound_states",
    "free_term", "hat_transform", "interface_system", "leading_order",
    "mirrored", "nu", "omega", "ray_bracket", "reduced_system",
    "scattering_a", "sigma", "solve_unknowns", "step_coefficients",
    "trig_denominator", "whole_line_hat", "__version__",
]
