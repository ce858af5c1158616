"""Golden bytes of the fractal recipe: pdp with a log, fractal, both renders.

The digests pin the exact output bytes (number formatting, key order,
draw order, projection) so a rewrite of the sampler or of the text I/O
cannot change a file silently.  Paths are relative so the embedded
configs, and hence the bytes, do not depend on the test's directory.
"""

import hashlib

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
    "cloud.csv": "eb8fa5f7c220ee05c1f4379af5a8fd2488d59af8ee59aebeaa91513b0ccf5524",
    "path.jsonl": "3039d50be061ed8707ab315cbdcfb47c45531ff7edd9a80c34be7aac3032de68",
    "dimension.json": "2e28d30b549bd82c303eb81d76fcc8b042aa702c23f1319bbd77737750ad3eaa",
    "cloud.ppm": "64b52fe4992286f4dad45ca59585c2cb5058a44db0f824e3100f3512b4c7b221",
    "cloud.pgm": "5aaa5e133ceb084bd9b58ee52995d91b1db812040759b9a323c0f9bd92905990",
}

# precession, the eeqt clock, a tilted start and no burn-in
PRECESSING = ["pdp", "--alpha", "0.6", "--omega", "0.7", "--kappa", "2",
              "--rate-convention", "eeqt", "--r0", "[0.6,0,0.8]", "--burn-in", "0",
              "--n-points", "500", "--seed", "11", "--out", "cloud.csv",
              "--log", "path.jsonl"]
PRECESSING_DIGESTS = {
    "cloud.csv": "e07bcfa9d7545ba4f11dc50bf7c3403d68351d72bacb7d993bdf436fac9a17f5",
    "path.jsonl": "e3a1589241a5ff7b21b6478207b6e8d4e9ad799332abe5c009dbdecb1a1c5efe",
}


def digests(names):
    return {name: hashlib.sha256(open(name, "rb").read()).hexdigest() for name in names}


@pytest.mark.parametrize("commands, expected", [
    (RECIPE, RECIPE_DIGESTS), ([PRECESSING], PRECESSING_DIGESTS),
], ids=["fractal-recipe", "precessing-path"])
def test_outputs_match_golden_bytes(tmp_path, monkeypatch, commands, expected):
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv) == 0
    assert digests(expected) == expected
