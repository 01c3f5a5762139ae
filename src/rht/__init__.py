"""Rational homotopy toolkit: Gottlieb groups from Sullivan models, exactly."""

from .algebra import (
    AlgElement,
    GenSet,
    Generator,
    Monomial,
    basis_in_degree,
)
from .catalog import Catalog, enumerate_fibrations
from .derivations import (
    ABSOLUTE,
    IDEAL,
    RELATIVE,
    Derivation,
    DerComplex,
    apply_derivation,
)
from .invariants import (
    ClassificationReport,
    DepthResult,
    GottliebResult,
    ToralCertificate,
    classify,
    connecting_image,
    connecting_images,
    depth_of_subspaces,
    der_homology,
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
