"""Invariants and stabilizers of finite monoid actions.

Finite sets with products and exponentials carry actions of a finite
monoid; a site is a chosen family of such actions.  For a monoid map into
the acting monoid the package computes the subfunctor of invariants as
fixed points, recovers stabilizing submonoids through ends of hom
diagrams, and checks the Galois connection the two constructions induce.
"""

from .finset import (FinSet, FinMap, FinSetError, SizingError, singleton,
                     product, exponential, curry, equalizer)
from .monoid import (Monoid, MonoidHom, MonoidError, NotHopfError,
                     validate_monoid, laws_hold, generators, trivial_monoid,
                     submonoid, submonoid_tuples,
                     is_subgroup, enumerate_submonoids, enumerate_subgroups,
                     is_hopf, hopf_witness, antipode, kernel_pairs)
from .actions import (MAction, ActionError, Site,
                      validate_action, trivial_action, free_action,
                      restrict_action, hom_tuples, coinduct,
                      coset_action, canonical_site, default_site)
from .ends import (EndObject, EndError, ForgetfulDiagram,
                   internal_nat, end_of_forgetful, end_monoid,
                   reconstruction_hom, trivial_path, family_restriction)
from .galois import (Subfunctor, GaloisError, fixes, invariants,
                     stabilizer, stabilizer_via_end,
                     galois_correspondence, connection_laws,
                     connection_law_failures, random_subfunctor)

__version__ = "0.1.0"
