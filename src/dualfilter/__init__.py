"""Filtering, duality and stability analysis for hidden Markov models."""

__version__ = "0.1.0"

from .models import (CarreDuChamp, HmmModel, LinearGaussianModel, NumericalFailure,
                     ObservationMatrix, RateMatrix, SimplexVector, carre_du_champ,
                     ergodic_classes, invariant_measure, model_from_dict, model_from_json,
                     q_matrices)

__all__ = [
    "CarreDuChamp", "HmmModel", "LinearGaussianModel", "NumericalFailure",
    "ObservationMatrix", "RateMatrix", "SimplexVector", "carre_du_champ",
    "ergodic_classes", "invariant_measure", "model_from_dict", "model_from_json",
    "q_matrices", "__version__",
]
