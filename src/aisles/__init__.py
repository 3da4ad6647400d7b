"""Combinatorics of torsion pairs and t-structures over hereditary
path algebras: exact-arithmetic module categories for Dynkin quivers, a
windowed stalk model of their bounded derived categories, a symbolic
Kronecker model for the tame case, and the transport of torsion pairs
through tilting."""

from .derived import DerivedObject, Window, hom_derived, shift, tau_derived
from .quiver import Quiver, load_quiver, load_quiver_file, linear_quiver
from .repcore import IndecTable, Representation, enumerate_indecomposables, hom_space
from .torsion import TorsionPair, enumerate_torsion_pairs
from .tstruct import TStructure, lift, trace

__all__ = [
    "DerivedObject",
    "IndecTable",
    "Quiver",
    "Representation",
    "TStructure",
    "TorsionPair",
    "Window",
    "enumerate_indecomposables",
    "enumerate_torsion_pairs",
    "hom_derived",
    "hom_space",
    "lift",
    "linear_quiver",
    "load_quiver",
    "load_quiver_file",
    "shift",
    "tau_derived",
    "trace",
]

__version__ = "0.1.0"
