"""Exact computational machinery for self-dual vertex operator
superalgebra characters: q-series, modular representations, invariant
theory, extremal solutions and lattice theta series."""

from .cyclo import Cyclo, sqrt2, zeta_pow
from .qseries import GRID, QSeries, standard_series
from .modrep import (CycMatrix, FusionTensor, MatrixGroup, character_rep,
                     generate_group, molien, verlinde)
from .invariants import (MultiPoly, basis_invariants, evaluate_at_characters,
                         monster_polynomial, poly_act, solve_monster_polynomial)
from .babymonster import baby_character, marginal_polynomial
from .extremal import (ExtremalSolution, ShadowReport, Verdict, buermann_alpha,
                       classify, classify_range, decompose_character,
                       extremal_svoa, extremal_voa, hw_enumerator,
                       orbifold_character, shadow)
from .lattices import Lattice, lattice_catalog, svoa_character, theta_series

__version__ = "0.1.0"
