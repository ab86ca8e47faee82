"""weilforms: antisymmetric vector-valued cusp forms and theta lifts.

Exact-arithmetic computation of cusp forms for dual Weil representations of
finite quadratic modules, their lifts to orthogonal and Hilbert modular
forms, and Hurwitz class number identities.
"""

from .classnum import (HurwitzTable, IdealWitness, hurwitz, ideals_of_norm_q5,
                       prop10_check, remark12_check, unit_orbit_correction)
from .cuspgen import (CuspIndex, cusp_basis, jacobi_coefficients, r_series,
                      weight3_cyclic)
from .dimensions import DimensionReport, dim_antisymmetric, gauss_sum, sawtooth
from .eisenstein import (QExpansion, eisenstein_qexp, generalized_bernoulli,
                         KroneckerCharacter, modularity_residual)
from .errors import WeilformsError
from .localdensity import DensityCache, LocalDensityRecord, local_density
from .quadmod import (EvenLattice, FiniteQuadraticModule, cyclic_module,
                      discriminant_module, dual_coset, enlarge_lattice,
                      weil_matrices)
from .thetalift import (LorentzianGram, OrthogonalExpansion, doi_naganuma,
                        theta_lift)

__all__ = [
    "CuspIndex", "DensityCache", "DimensionReport", "EvenLattice", "HurwitzTable",
    "FiniteQuadraticModule", "IdealWitness", "jacobi_coefficients",
    "KroneckerCharacter", "LocalDensityRecord", "LorentzianGram",
    "OrthogonalExpansion", "QExpansion", "WeilformsError",
    "cusp_basis", "cyclic_module", "dim_antisymmetric", "discriminant_module",
    "doi_naganuma", "dual_coset", "eisenstein_qexp", "enlarge_lattice",
    "gauss_sum", "generalized_bernoulli", "hurwitz", "ideals_of_norm_q5",
    "local_density", "modularity_residual", "prop10_check",
    "r_series", "remark12_check", "sawtooth", "theta_lift",
    "unit_orbit_correction", "weight3_cyclic", "weil_matrices",
]

__version__ = "0.1.0"
