"""Desk-scale laboratory for a 2D Q-tensor gradient flow with a cubic elastic term."""

from .energy import (
    DerivedConstants,
    LdGParams,
    OseenFrankConstants,
    bulk_density,
    derived_constants,
    elastic_density,
    elastic_matrix,
    elastic_matrix_eigenvalues,
    oseen_frank_forward,
    oseen_frank_inverse,
    total_energy,
)
from .qtensor import (
    PhysicalityInterval,
    QTensor2,
    QTensor3,
    eigenvalues,
    is_physical,
    physical_interval,
    unit_physicality_interval,
)

__all__ = [
    "DerivedConstants",
    "LdGParams",
    "OseenFrankConstants",
    "PhysicalityInterval",
    "QTensor2",
    "QTensor3",
    "bulk_density",
    "derived_constants",
    "eigenvalues",
    "elastic_density",
    "elastic_matrix",
    "elastic_matrix_eigenvalues",
    "is_physical",
    "oseen_frank_forward",
    "oseen_frank_inverse",
    "physical_interval",
    "total_energy",
    "unit_physicality_interval",
]

__version__ = "0.1.0"
