"""Shared by the matrix-exponential property tests: the generators they
draw and an extended-precision exponential to compare against."""

import numpy as np
from hypothesis import strategies as st

from qmix.exponent import default_fit_horizon
from qmix.lindblad import (
    Fluorescence,
    LindbladModel,
    SigmaXConjugation,
    Tetrahedron,
    Zeno,
    build_model,
)

_entry = st.floats(-1.0, 1.0)
_operators = st.lists(_entry, min_size=8, max_size=8).map(
    lambda v: (np.array(v[:4]) + 1j * np.array(v[4:])).reshape(2, 2))
_rates = st.floats(0.1, 5.0)


@st.composite
def presets(draw):
    """Any preset; Zeno at critical damping (kappa = 4 omega) half the time."""
    kind = draw(st.sampled_from(["tetrahedron", "zeno", "fluorescence", "sigma1"]))
    if kind == "tetrahedron":
        return Tetrahedron(draw(_rates), draw(st.floats(0.1, 1.0)), draw(st.floats(0.0, 5.0)))
    if kind == "zeno":
        omega = draw(_rates)
        critical = draw(st.booleans())
        return Zeno(4.0 * omega if critical else draw(st.floats(0.1, 20.0)), omega)
    if kind == "fluorescence":
        return Fluorescence(draw(st.floats(0.0, 5.0)), draw(_rates))
    return SigmaXConjugation()


@st.composite
def horizons(draw):
    """A model and a horizon: presets at a fraction of their fit horizon,
    bare models (random H and jump operators) at up to 100."""
    if draw(st.booleans()):
        model = build_model(draw(presets()))
        return model, default_fit_horizon(model) * draw(st.floats(0.05, 1.5))
    a = draw(_operators)
    terms = [(draw(_operators), draw(st.floats(0.0, 2.0)))
             for _ in range(draw(st.integers(1, 3)))]
    return LindbladModel(0.5 * (a + a.conj().T), terms), draw(st.floats(0.1, 100.0))


def expm_longdouble(m: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(t m) for every t, by scaling and squaring in ``np.longdouble``.

    Each t m is halved s times until its 1-norm is at most 1/4, summed by a
    20-term Taylor series (truncation below 1e-30) and squared s times.
    The rounding error grows like 2^s times the unit roundoff (5.4e-20):
    about 5e-15 relative at the longest fit horizon here, against a
    30-digit mpmath exponential.
    """
    assert np.finfo(np.longdouble).eps < 1e-18, "the oracle needs extended precision"
    a = times.astype(np.longdouble)[:, None, None] * m.astype(np.longdouble)
    norms = np.abs(a).sum(axis=1).max(axis=1).astype(float)
    s = np.ceil(np.log2(np.maximum(norms, 1e-300) / 0.25)).clip(0).astype(int)
    a = np.ldexp(a, -s[:, None, None])
    term = np.broadcast_to(np.eye(m.shape[-1], dtype=np.longdouble), a.shape)
    total = term.copy()
    for k in range(1, 20):
        term = term @ a / k
        total += term
    for j in range(s.max(initial=0)):
        more = s > j
        total[more] = total[more] @ total[more]
    return total
