"""The grid-powers distance route against the per-time matrix exponential.

:func:`qmix.exponent.lambda_q_numeric` propagates probe differences with
``lindblad._grid_propagator``: one exponential of the grid step, then its
powers.  The property test compares it at every grid time with a per-time
matrix exponential in extended precision (``np.longdouble``, 64-bit
significand), on every preset (critical Zeno damping and sigma1
conjugation included) and on random bare models.  Each error is measured
against the largest distance from the same matrix exp(M t_k): that is the
accuracy a normwise-accurate exponential has, and a distance that nearly
cancels (one axis at 1.3e-36 beside others near 9.2e-25) cannot be held
to 1e-10 of itself.  A double-precision exponential is no oracle at the
1e-10 bound: at long fit horizons scipy's ``expm`` was off by 1.1e-10.
The pin test holds the README exponent reports to
the floats that the per-time ``expm`` route wrote.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from expm_oracle import expm_longdouble, horizons
from qmix.cli import main
from qmix.exponent import DISTANCE_FLOOR, default_fit_horizon
from qmix.lindblad import (
    LindbladModel,
    Tetrahedron,
    _grid_propagator,
    bloch_generator,
    build_model,
)

PROPERTY_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                             database=None)

# a scipy expm reference misses e^{-lambda t} here by 1.1e-10
_SLOW_TETRAHEDRON = build_model(Tetrahedron(0.1, 0.24087661857266263, 1.0))
# a bare model of the strategy (a = [[0, 1 - i], [0, 0]], one jump [[0, 0], [i, 0]]
# at rate 2) whose z-axis distance at t = 55 is 1.3e-36 beside 9.2e-25: the
# grid power is off by 3.1e-9 of the z distance, 5.9e-15 of the largest
_CANCELLING = LindbladModel(np.array([[0.0, 0.5 - 0.5j], [0.5 + 0.5j, 0.0]]),
                            [(np.array([[0.0, 0.0], [1j, 0.0]]), 2.0)])


@PROPERTY_SETTINGS
@given(case=horizons(), n=st.integers(3, 400),
       extra=st.lists(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3), max_size=3))
@example(case=(_SLOW_TETRAHEDRON, default_fit_horizon(_SLOW_TETRAHEDRON)), n=4, extra=[])
@example(case=(_CANCELLING, 55.0), n=3, extra=[])
def test_grid_powers_match_the_per_time_expm(case, n, extra):
    model, t_max = case
    m, _ = bloch_generator(model)
    diffs = np.vstack([np.eye(3), np.reshape(extra, (-1, 3))])
    times = np.linspace(0.0, t_max, n)
    # hypot, not norm: the squares of distances below 1e-154 underflow
    grid = np.hypot.reduce(diffs @ np.swapaxes(_grid_propagator(m, t_max, n), 1, 2), axis=2)
    exact = diffs.astype(np.longdouble) @ np.swapaxes(expm_longdouble(m, times), 1, 2)
    reference = np.sqrt(np.sum(exact * exact, axis=2))  # (time, diff)
    above = reference > DISTANCE_FLOOR
    assert above[0, :3].all()
    largest = np.broadcast_to(reference.max(axis=1, keepdims=True), reference.shape)
    error = np.abs(grid[above] - reference[above]) / largest[above]
    assert error.max() <= 1e-10


# Exponents and per-probe slopes of the README exponent recipes, as written
# by the per-time expm route that the grid powers replaced; the z-axis probes
# of kappa = 8 and 16, whose distances sink below 1e-154, as written once the
# distances were taken with hypot (their squares had underflowed).
FLUORESCENCE_EXPONENT = 0.49999999999999983
FLUORESCENCE_SLOPES = [
    0.49999999999999994, 0.49999999999999994, 0.750012256378386,
    0.7500876591552508, 0.7498611776145454, 0.7500697657883065,
    0.4999999999999999, 0.49999999999999994, 0.4999999999999999,
    0.4999999999999999, 0.4999999999999999, 0.4999999999999999,
    0.49999999999999983, 0.4999999999999999, 0.49999999999999994,
    0.49999999999999983, 0.4999999999999999, 0.4999999999999999,
]
ZENO_SWEEP_EXPONENTS = {
    1.0: 0.24986577378780367,
    2.0: 0.499960031741809,
    4.0: 0.9879432901682965,
    8.0: 0.26794919243112275,
    16.0: 0.12701665379258306,
}
ZENO_SWEEP_SLOPES = {
    1.0: [
        0.24986577378780367, 0.24986577378780367, 0.25015236530182133,
        0.25015236530182133, 0.4999999999999994, 0.4999999999999994,
        0.24993002321781652, 0.2501375825184549, 0.2499319611393239,
        0.2500456552482383, 0.24987216311986066, 0.2499350487434357,
        0.25003980091155414, 0.2500288862257276, 0.2500394819208902,
        0.24999552597938776, 0.2501530113098397, 0.25008525513207425,
    ],
    2.0: [
        0.5000206698656305, 0.5000206698656305, 0.5000232747406835,
        0.5000232747406835, 0.9999999999999805, 0.9999999999999805,
        0.4999830884856894, 0.5000387698531161, 0.4999823176526783,
        0.499960031741809, 0.5000154143249548, 0.49998112122291205,
        0.4999919041981983, 0.49998417340416335, 0.49999167397729744,
        0.4999643721467802, 0.5000147831463465, 0.4999633839606184,
    ],
    4.0: [
        0.9886889836487518, 0.9886889836487518, 0.9885563492305234,
        0.9885563492305234, 1.9999999999999203, 1.9999999999999203,
        0.9886564908615426, 0.9885267587789203, 0.9886558302815949,
        0.9886234848490953, 0.9886838145914122, 0.9886547944753271,
        0.9883250005538732, 0.9882747771951356, 0.9883237152071247,
        0.9879432901682965, 0.9885650336529308, 0.9886116872037898,
    ],
    8.0: [
        0.2679491924311228, 0.2679491924311228, 0.2679491924311228,
        0.2679491924311228, 4.000000000000002, 4.000000000000002,
        0.2679491924311228, 0.2679491924311228, 0.2679491924311228,
        0.2679491924311228, 0.2679491924311228, 0.26794919243112275,
        0.2679491924311228, 0.2679491924311228, 0.2679491924311228,
        0.26794919243112275, 0.2679491924311228, 0.2679491924311228,
    ],
    16.0: [
        0.1270166537925831, 0.1270166537925831, 0.1270166537925831,
        0.1270166537925831, 8.000000000000004, 8.000000000000004,
        0.1270166537925831, 0.1270166537925831, 0.12701665379258306,
        0.1270166537925831, 0.1270166537925831, 0.1270166537925831,
        0.1270166537925831, 0.1270166537925831, 0.1270166537925831,
        0.1270166537925831, 0.1270166537925831, 0.1270166537925831,
    ],
}
ZENO_SWEEP_WINDOWS = {
    1.0: [240.0, 480.0],
    2.0: [120.0, 240.0],
    4.0: [60.0, 120.0],
    8.0: [223.92304845413264, 447.8460969082653],
    16.0: [472.379000772445, 944.75800154489],
}
# the z axis probes (4 and 5) decay at kappa/2 and sink below the floor
ZENO_SWEEP_SHRUNK = {8.0: "[82.5716, 165.143]", 16.0: "[41.3332, 82.6663]"}


def _report(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def _assert_pinned(numeric, exponent, slopes):
    assert numeric["exponent"] == pytest.approx(exponent, rel=1e-12, abs=0.0)
    assert numeric["per_probe_slopes"] == pytest.approx(slopes, rel=1e-12, abs=0.0)


def test_readme_fluorescence_report_is_pinned(tmp_path):
    report = _report(tmp_path, ["exponent", "--preset", "fluorescence", "--rabi", "2",
                                "--gamma", "1"])
    assert report["classification"] == {"completely_mixing": True, "exact": False}
    numeric = report["numeric"]
    assert numeric["completely_mixing"]
    assert numeric["notes"] == []
    assert numeric["fit_window"] == [120.0, 240.0]
    _assert_pinned(numeric, FLUORESCENCE_EXPONENT, FLUORESCENCE_SLOPES)


def test_readme_zeno_sweep_report_is_pinned(tmp_path):
    report = _report(tmp_path, ["exponent", "--preset", "zeno", "--omega", "1",
                                "--kappa-sweep", "[1,2,4,8,16]"])
    assert [entry["kappa"] for entry in report["sweep"]] == list(ZENO_SWEEP_WINDOWS)
    for entry in report["sweep"]:
        kappa, numeric = entry["kappa"], entry["numeric"]
        assert entry["classification"] == {"completely_mixing": True, "exact": True}
        assert numeric["completely_mixing"]
        assert numeric["fit_window"] == ZENO_SWEEP_WINDOWS[kappa]
        shrunk = ZENO_SWEEP_SHRUNK.get(kappa)
        assert numeric["notes"] == ([] if shrunk is None else [
            f"probe {i}: distance fell below 1e-290 before the nominal window; "
            f"fit shrunk to {shrunk}" for i in (4, 5)])
        _assert_pinned(numeric, ZENO_SWEEP_EXPONENTS[kappa], ZENO_SWEEP_SLOPES[kappa])
