"""Exact integer linear algebra: Smith normal form and windowed homology."""

from .core import (
    ChainComplexWindow,
    HomologyEntry,
    HomologyTable,
    IntMatrix,
    backend_name,
    basis_window,
    homology_window,
    mapping_cone,
    smith_normal_form,
)

__all__ = [
    "ChainComplexWindow",
    "HomologyEntry",
    "HomologyTable",
    "IntMatrix",
    "backend_name",
    "basis_window",
    "homology_window",
    "mapping_cone",
    "smith_normal_form",
]
