"""``lindblad._expm`` against the extended-precision exponential.

Every matrix exponential of the package goes through ``_expm``: the
model's 4x4 generator table for evolve's step, exact paths and the
mixing classification, its 3x3 block M for the grid step of the distance
tables.
Both are drawn here as stacks over [0, t_max] and as one matrix at
t_max, on every preset up to 1.5 times its fit horizon (critical Zeno,
where M is defective, and sigma1 conjugation, where M is singular,
included) and on random bare models.  Exponentials whose entries all lie
below the distance floor are skipped: a bare model decaying fast enough
sinks below the double range, where the oracle still has digits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from expm_oracle import expm_longdouble, horizons
from qmix.exponent import DISTANCE_FLOOR
from qmix.lindblad import _expm, bloch_generator


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=horizons(), n=st.integers(2, 60), augmented=st.booleans())
def test_expm_matches_the_extended_precision_oracle(case, n, augmented):
    model, t_max = case
    a = model._generator if augmented else bloch_generator(model)[0]
    times = np.linspace(0.0, t_max, n)
    exact = expm_longdouble(a, times)
    for got, ref in ((_expm(times[:, None, None] * a), exact), (_expm(t_max * a), exact[-1])):
        scale = np.abs(ref).max(axis=(-2, -1))
        error = np.abs(got - ref).max(axis=(-2, -1))
        assert np.all((error <= 1e-10 * scale) | (scale <= DISTANCE_FLOOR))
