"""Rational homotopy toolkit: Gottlieb groups from Sullivan models, exactly."""

from .algebra import (
    AlgElement,
    GenSet,
    Generator,
    Monomial,
    basis_in_degree,
)
from .catalog import Catalog, enumerate_fibrations
from .derivations import ABSOLUTE, IDEAL, RELATIVE, DerComplex
from .invariants import (
    DepthResult,
    GottliebResult,
    ToralCertificate,
    connecting_images,
    depth_of_subspaces,
    fibre_gottlieb,
    finiteness_window,
    gottlieb,
    les_check,
    toral_certificate,
)
from .linalg import Echelon, HomologySlice, RatMatrix, Subspace
from .model import (
    Cochains,
    RelativeModel,
    SullivanModel,
    cohomology,
    parse_document,
    parse_fibration,
    parse_model,
    trivial_fibration,
)
from .poset import Poset, poset_of_subspaces, render

__version__ = "0.1.0"
