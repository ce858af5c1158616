"""Mixing diagnostics for dissipative qubit dynamics.

Subpackages:

* :mod:`qmix.states` -- qubit arithmetic, Bloch coordinates, closed-form entropies
* :mod:`qmix.lindblad` -- master-equation presets, Bloch-affine RK4, the exponential of
  (M, b) by scaling and squaring, grid powers of exp(M dt)
* :mod:`qmix.exponent` -- characteristic-exponent estimation on grid-power distance
  tables, and mixing tests
* :mod:`qmix.pdp` -- measurement jump process and chaos-game sampling
* :mod:`qmix.boxdim` -- box-counting dimension on the sphere
* :mod:`qmix.circle` -- circle densities and the r-adic transfer operator
* :mod:`qmix.cli` -- command-line front end (``qmix ...``)
"""

from .lindblad import (
    Fluorescence,
    LindbladModel,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    build_model,
    evolve,
    generator_apply,
    stationary_state,
)
from .exponent import (
    classify_mixing,
    default_probe_set,
    lambda_q_analytic,
    lambda_q_numeric,
)
from .pdp import chaos_game, jump_map, jump_probs, sample_path
from .boxdim import box_count, estimate_dimension
from .states import (
    from_bloch,
    relative_entropy,
    to_bloch,
    trace_norm,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "Fluorescence", "LindbladModel", "SigmaXConjugation", "Tetrahedron", "Zeno",
    "build_model", "evolve", "generator_apply", "stationary_state",
    "classify_mixing", "default_probe_set", "lambda_q_analytic",
    "lambda_q_numeric", "chaos_game", "jump_map", "jump_probs",
    "sample_path", "box_count", "estimate_dimension",
    "from_bloch", "relative_entropy", "to_bloch", "trace_norm",
    "von_neumann_entropy", "__version__",
]
