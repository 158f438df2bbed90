"""Exact symbolic computation in t-deformed Grothendieck rings of quantum loop
algebras (simply-laced), the quantum-group side with dual PBW and dual
canonical bases in the rank-r torus both sides share, and brute-force derived
Hall algebras over small finite fields."""

from .cartan import CartanDatum, cartan_datum
from .characters import (
    CategoryQ,
    fundamental_tchar,
    simple_tchar,
    standard_tchar,
    tsystem_exponents,
)
from .laurent import HalfLaurent
from .presentation import Presentation
from .qcartan import QuantumCartan, quantum_cartan
from .qgroup import QGroupSide
from .quiver import AdaptedWord, PhiMap, QuiverContext, QuiverDatum, ringel_form
from .torus import TorusElement, XTorus, YTorus, divide_right

__version__ = "0.1.0"

__all__ = [
    "AdaptedWord",
    "CartanDatum",
    "CategoryQ",
    "HalfLaurent",
    "PhiMap",
    "Presentation",
    "QGroupSide",
    "QuantumCartan",
    "QuiverContext",
    "QuiverDatum",
    "TorusElement",
    "XTorus",
    "YTorus",
    "cartan_datum",
    "divide_right",
    "fundamental_tchar",
    "quantum_cartan",
    "ringel_form",
    "simple_tchar",
    "standard_tchar",
    "tsystem_exponents",
]
