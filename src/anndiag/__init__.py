"""Annulus-diagram calculus for genus-two handlebody-knots.

Exact slope arithmetic, the annulus-type edge alphabet, labeled-diagram
canonicalization and isomorphism, parametric twist-family generators, and
a decision procedure for (in)equivalence of handlebody-knots with
homeomorphic exteriors.
"""

from .catalog_io import DiagramDocument, parse, serialize
from .diagram import (MAX_NODES, Diagram, Edge, NodeKind, ShapeClass,
                      are_isomorphic, canonical_form, shape_of,
                      validate_diagram)
from .errors import (DanglingEndpoint, DiagramError, InfiniteSlope,
                     NotUnimodular, ParameterOutOfDomain, ParseError,
                     SlopeError, TooManyNodes, UnsupportedVersion,
                     ZeroOverZero)
from .families import (FAMILY_SHAPES, CatalogEntry, ExteriorDetermines,
                       Family, TableKnot, Verdict, base_diagram,
                       decide_equivalence, distinguish,
                       e_family_crossing_number, family_diagram,
                       family_labels, leelee2_companion_torus_knot)
from .labels import (EM, H1, H2, AnnulusLabel, LabelKind, SeparationClass,
                     Strictness, ValidationResult, Violation, ViolationCode,
                     ell, k1, k2, label_to_text, parse_label,
                     separation_class, validate_label)
from .rational import (FormClass, Slope, SlopePair, apply_unimodular,
                       pair_form, parse_slope, parse_slope_pair)

__version__ = "0.1.0"
