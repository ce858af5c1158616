"""Golden bytes of the fractal recipe (pdp with a log, fractal, both renders),
of the evolve and density CSVs, and of the +z and zoom views.

The digests pin the exact output bytes (number formatting, key order,
draw order, projection) so a rewrite of the sampler or of the text I/O
cannot change a file silently.  Paths are relative so the embedded
configs, and hence the bytes, do not depend on the test's directory.
The config hashes of one recipe per list field pin that a list value is
embedded as given (``[1,2.0]`` stays ``[1,2.0]``).

The digests hold per BLAS kernel, not per numpy or OpenBLAS version.  The
sample-path recipes (``fractal-recipe``, ``precessing-path``) run the jump
process, which calls no BLAS, and pass on every OpenBLAS kernel tried; CI
reruns them under ``OPENBLAS_CORETYPE=Sandybridge``.  The ``writers`` case's ``traj.csv``
rows pass through the matrix products of ``lindblad._expm`` and
``evolve`` and move by an ulp on a kernel without FMA (``Nehalem``,
``Sandybridge`` or ``Prescott`` on OpenBLAS 0.3.31); the FMA kernels
tried (Haswell, SkylakeX, Zen, Cooperlake, SapphireRapids) match.
"""

import hashlib
import re
from pathlib import Path

import pytest

from qmix.cli import main

RECIPE = [
    ["pdp", "--alpha", "0.75", "--n-points", "2000", "--seed", "3",
     "--out", "cloud.csv", "--log", "path.jsonl"],
    ["fractal", "--cloud", "cloud.csv", "--out", "dimension.json"],
    ["render", "--cloud", "cloud.csv", "--log", "path.jsonl", "--mode", "ppm",
     "--size", "128", "--out", "cloud.ppm"],
    ["render", "--cloud", "cloud.csv", "--projection", "net", "--size", "128",
     "--out", "cloud.pgm"],
]
RECIPE_DIGESTS = {
    "cloud.csv": "2dd7d81998df20fe4fceaffbbbde78485487c80d387dc8cd45d8b2bb58059a92",
    "path.jsonl": "74a6b049bbb31bdc90bfaec824095815b13bacbb8646a083db8e0ceb4f47fc37",
    "dimension.json": "f04df95a265b3bc2a9137269d5739d60d886ee68391208573b9e8b1b1330aa10",
    "cloud.ppm": "64b52fe4992286f4dad45ca59585c2cb5058a44db0f824e3100f3512b4c7b221",
    "cloud.pgm": "5aaa5e133ceb084bd9b58ee52995d91b1db812040759b9a323c0f9bd92905990",
}

# precession, kappa != 1, a tilted start and no burn-in
PRECESSING = ["pdp", "--alpha", "0.6", "--omega", "0.7", "--kappa", "2",
              "--r0", "[0.6,0,0.8]", "--burn-in", "0", "--n-points", "500",
              "--seed", "11", "--out", "cloud.csv", "--log", "path.jsonl"]
PRECESSING_DIGESTS = {
    "cloud.csv": "794cd3d757e3635e1a26817836d3bab15cc74731f78c0fbd17ccea2382c9dd9d",
    "path.jsonl": "3393e963508999272733f7bbf0cb648b180c6baf9abfa15f1c59f8d19b729ba7",
}


# the CSV writer behind evolve and classical --density-out (a stationary
# note, a nan column), and the pixel index of the +z and zoom views
WRITERS = [
    ["evolve", "--preset", "tetrahedron", "--kappa", "1", "--alpha", "1", "--omega", "0",
     "--bloch0", "[0,0,1]", "--t-end", "1", "--out", "traj.csv"],
    ["evolve", "--preset", "sigma_x_conjugation", "--bloch0", "[0.5,0,0.5]", "--t-end", "1",
     "--out", "traj_sx.csv"],
    ["classical", "--r", "3", "--grid-size", "96", "--n-max", "6", "--out", "classical.json",
     "--density-out", "density.csv"],
    ["pdp", "--alpha", "0.75", "--n-points", "2000", "--seed", "3", "--out", "cloud.csv"],
    ["render", "--cloud", "cloud.csv", "--size", "128", "--out", "z.pgm"],
    ["render", "--cloud", "cloud.csv", "--zoom-center", "[1,0,0]", "--zoom-radius", "0.35",
     "--size", "128", "--out", "zoom.pgm"],
]
WRITERS_DIGESTS = {
    "traj.csv": "8dd1d66f6fa73cfad643b77f61d14d115da9bc7b70f83ea34501b96534234dee",
    "traj_sx.csv": "6c9313801ca33d27f9bb877ebc767b7d30523970af1bc4d8b3a9505640825c3a",
    "classical.json": "e46b743265f12db93abb086dcbc4f703f05e20919b87d7c694e56252165f6daf",
    "density.csv": "8b2aa90e32d2dad5406a5899e28bfc6971df5ea6eeb0cfe112fa9d4ce699a090",
    "z.pgm": "49c0cd49977bfc9bac9062613944bc4e9aaecca29ef4d43085eed7e531765db7",
    "zoom.pgm": "26bb0636382c643651423e0713ee1e42933dd1d103cda860fc5b75dd8cf68876",
}


def digests(names):
    return {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in names}


@pytest.mark.parametrize("commands, expected", [
    (RECIPE, RECIPE_DIGESTS), ([PRECESSING], PRECESSING_DIGESTS),
    (WRITERS, WRITERS_DIGESTS),
], ids=["fractal-recipe", "precessing-path", "writers"])
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, commands, expected):
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0
    assert digests(expected) == expected


# one recipe per list field; the value is the config_hash embedded in the output
LIST_FIELD_RECIPES = {
    "bloch0": (["evolve", "--preset", "zeno", "--kappa", "1", "--omega", "1",
                "--bloch0", "[0.3,0,0.4]", "--t-end", "0.5", "--out", "traj.csv"],
               "f4a7b9fd8120de5c09e4ca838874189ce9be965efe8037831a5c7aac073e1d10"),
    "kappa_sweep": (["exponent", "--preset", "zeno", "--omega", "1", "--kappa-sweep", "[1,2]",
                     "--out", "sweep.json"],
                    "02ebe0c45a8e62a0aef15e12dc8bfe075757f1e0096bae0295294a9ec3fae457"),
    "probe_ks": (["classical", "--probe-ks", "[1,2.0]", "--grid-size", "64", "--n-max", "6",
                  "--out", "classical.json"],
                 "c75189009c8fb270fb5330af088f44b866527c75d1cf4ab43d703aac191fa11a"),
    "zoom_center": (["render", "--cloud", "cloud.csv", "--zoom-center", "[1,0,0]",
                     "--zoom-radius", "0.4", "--size", "64", "--out", "zoom.pgm"],
                    "3f6fe754eabca4c6e9e27149e3ac503d7ef3b14bca77d10cd0a3427fb7ae9052"),
    "criteria": (["repro", "--criteria", "[6]", "--out", "report.json"],
                 "136ed460ce1fe37781ff19fc8a76cf70546ab5de134dbb28338a57e4554d4265"),
}


@pytest.mark.parametrize("field", sorted(LIST_FIELD_RECIPES))
def test_list_fields_embed_the_config_hash_of_the_value_as_given(tmp_path, monkeypatch, field):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cloud.csv").write_text("1,0,0\n0,1,0\n0,0,1\n0.6,0,0.8\n")
    argv, expected = LIST_FIELD_RECIPES[field]
    assert main(argv) == 0
    text = Path(argv[-1]).read_bytes()
    assert re.search(rb'config_hash"?:\s*"?([0-9a-f]{64})', text).group(1).decode() == expected
