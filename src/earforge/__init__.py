"""earforge: compensate anisotropy earing in deep drawing by blank-contour
optimization.

The pipeline: describe blank contours through cosine-lobe coefficients,
run a central composite design of blanks against a process plant (analytic
surrogate or ingested external data), decompose each rim defect into modal
coordinates, fit quadratic response surfaces, and minimize the summed squared
modal coordinates to find the blank that draws a defect-free cup.
"""

from .doe import (DesignMatrix, Factor, FactorSpace, ccd_design,
                  default_factor_space, to_physical)
from .errors import (EarforgeError, InvalidBlankError, NumericError,
                     ValidationError)
from .geometry import (BlankSpec, ContourProfile, CupSpec, blank_contour,
                       deviation_vector, ear_amplitude, initial_blank_diameter)
from .modal import (ModalBasis, ModalCoordinates, analytic_mode,
                    build_modal_basis, decompose, project)
from .optimizer import ObjectiveSpec, Optimum, grid_oracle, minimize
from .plant import (DC05, MaterialAnisotropy, SurrogateParams, ingest_profile,
                    simulate)
from .rsm import QuadraticModel, ResponseTable, fit_quadratic

__version__ = "0.1.0"

__all__ = [
    "BlankSpec", "ContourProfile", "CupSpec",
    "blank_contour", "initial_blank_diameter", "ear_amplitude",
    "deviation_vector",
    "ModalBasis", "ModalCoordinates", "build_modal_basis", "analytic_mode",
    "project", "decompose",
    "Factor", "FactorSpace", "DesignMatrix", "ccd_design",
    "default_factor_space", "to_physical",
    "QuadraticModel", "ResponseTable", "fit_quadratic",
    "ObjectiveSpec", "Optimum", "minimize", "grid_oracle",
    "MaterialAnisotropy", "SurrogateParams", "DC05", "simulate",
    "ingest_profile",
    "EarforgeError", "ValidationError", "NumericError", "InvalidBlankError",
    "__version__",
]
