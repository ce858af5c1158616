"""Mixing diagnostics for dissipative qubit dynamics.

Modules:

* :mod:`qmix.states` -- qubit arithmetic, Bloch coordinates and map tables, entropies
* :mod:`qmix.lindblad` -- master-equation presets, the generator's 4x4 table A, its
  exponential by scaling and squaring (every propagator), and the powers of the
  step propagator exp(dt A) (evolve's rows and the exponent's distance grid)
* :mod:`qmix.exponent` -- characteristic-exponent estimation on distance tables
  from those powers, and mixing tests
* :mod:`qmix.pdp` -- measurement jump process and chaos-game sampling
* :mod:`qmix.boxdim` -- box-counting dimension on the sphere
* :mod:`qmix.circle` -- circle densities and the r-adic transfer operator
* :mod:`qmix.cli` -- command-line front end (``qmix ...``)

Importing the package loads none of them.  Each name of ``__all__`` is
resolved from its home module on first use (PEP 562), so ``qmix.sample_path``
is ``qmix.pdp.sample_path`` and a ``qmix`` command pays only for the modules
it runs.
"""

import importlib

__version__ = "0.1.0"
# jumps qmix.pdp discards before it keeps one; attractor convergence is
# geometric, so 100 suffice.  It lives here, not in a numpy module, because
# the schema of qmix.cli reads it before any command loads numpy.
DEFAULT_BURN_IN = 100

_HOMES = {
    "lindblad": ("Fluorescence", "LindbladModel", "SigmaXConjugation", "Tetrahedron",
                 "Zeno", "build_model", "evolve", "generator_apply", "stationary_state"),
    "exponent": ("classify_mixing", "default_probe_set", "lambda_q_analytic",
                 "lambda_q_numeric"),
    "pdp": ("chaos_game", "jump_map", "jump_probs", "sample_path"),
    "boxdim": ("box_count", "estimate_dimension"),
    "states": ("from_bloch", "relative_entropy", "to_bloch", "trace_norm",
               "von_neumann_entropy"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME_OF, "__version__"]


def __getattr__(name: str):
    # not cached here: the name stays whatever its home module binds it to
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module 'qmix' has no attribute {name!r}")
    return getattr(importlib.import_module(f"qmix.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
