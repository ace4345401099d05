"""The bytes a certificate writes, pinned through ``cli.main``.

Each run is a small ``certify`` config; the test compares one sha256 over
the names and bytes of the ``certificates.json``, ``margins.json`` and
``linear_brl.json`` it writes with ``DIGESTS``.  A change to a functional's
body, a tolerance scale, a draw or a linear margin that moves a bit of a
verdict, a witness or a margin fails here, where the benchmark's artifact
digests would be the only other check.
"""

import hashlib
import json

import pytest

from sbrl import cli

EXAMPLE1 = {"builtin": "example1"}
EXAMPLE1_BOX = {"lo": [-10.0], "hi": [10.0], "grid": 11}
EXAMPLE2 = {"builtin": "example2"}
EXAMPLE2_BOX = {"lo": [-2.0, -2.0, -2.0], "hi": [2.0, 2.0, 2.0], "grid": 3}
CLOSED_FORM = {"mode": "closed-form"}
LINEAR = {"linear": {"A": [[0.5, 0.1], [0.0, 0.4]],
                     "A0": [[0.1, 0.0], [0.05, 0.1]],
                     "B": [[1.0], [0.5]], "C": [[1.0, 0.0]], "D": [[0.1]]}}
# the plant whose least certified gamma^2 is 12.28, against an exact 7.63
PLANT = {"linear": {"A": [[0.6, 0.2], [-0.1, 0.5]],
                    "A0": [[0.1, 0.0], [0.0, 0.1]],
                    "B": [[1.0], [0.5]], "C": [[1.0, 0.0]], "D": [[0.1]]}}
SCALAR = {"linear": {"A": [[0.5]], "A0": [[0.0]], "B": [[1.0]],
                     "C": [[0.5]], "D": [[0.0]]}}
# A = A0 = 0: rho(T) = 0 admits every beta > 1
STATIC = {"linear": {"A": [[0.0]], "A0": [[0.0]], "B": [[1.0]],
                     "C": [[1.0]], "D": [[0.1]]}}


def monte_carlo(antithetic):
    return {"mode": "monte-carlo", "samples": 200, "antithetic": antithetic}


# name -> (config without seed and output, exit code)
RUNS = {
    "example1-gamma-star": ({
        "system": EXAMPLE1, "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "gamma-star", "p_grid": [2.0, 4.0, 8.0],
                        "beta_grid": [1.005, 1.0101010101010102, 1.1, 2.0],
                        "domain": {"lo": [-10.0], "hi": [10.0], "grid": 41},
                        "scheme": CLOSED_FORM}}, 0),
    "example2-controller": ({
        "system": EXAMPLE2, "storage": EXAMPLE2, "law": EXAMPLE2,
        "certificate": {"kind": "controller", "beta": 1.1696070952851465,
                        "gamma": 0.75, "domain": EXAMPLE2_BOX,
                        "scheme": CLOSED_FORM}}, 0),
    "example1-external-monte-carlo": ({
        "system": EXAMPLE1, "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "external", "beta": 1.0101010101010102,
                        "gamma_sq": 0.08, "domain": EXAMPLE1_BOX,
                        "scheme": monte_carlo(False)}}, 2),
    "example1-external-antithetic": ({
        "system": EXAMPLE1, "storage": {"builtin": "example1", "p": 4.0},
        "certificate": {"kind": "external", "beta": 1.0101010101010102,
                        "gamma_sq": 0.08, "domain": EXAMPLE1_BOX,
                        "scheme": monte_carlo(True)}}, 2),
    "example2-internal": ({
        "system": EXAMPLE2, "storage": EXAMPLE2, "law": EXAMPLE2,
        "certificate": {"kind": "internal", "c2": 1.0, "domain": EXAMPLE2_BOX,
                        "scheme": CLOSED_FORM}}, 2),
    "linear-brl-verify": ({
        "system": SCALAR, "storage": {"quadratic": {"P": [[0.5]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0,
                        "gamma_sq": 2.0}}, 0),
    "linear-brl-search": ({
        "system": LINEAR,
        "certificate": {"kind": "linear-brl", "gamma_sq": 10.0}}, 0),
    "linear-brl-search-plant": ({
        "system": PLANT,
        "certificate": {"kind": "linear-brl", "gamma_sq": 12.3}}, 0),
    "linear-brl-search-static": ({
        "system": STATIC,
        "certificate": {"kind": "linear-brl", "gamma_sq": 10.0}}, 0),
    "linear-brl-verify-static": ({
        "system": STATIC, "storage": {"quadratic": {"P": [[1.0]]}},
        "certificate": {"kind": "linear-brl", "beta": 2.0,
                        "gamma_sq": 10.0}}, 0),
}

DIGESTS = {
    "example1-gamma-star":
        "f95039f263be590b697ed9773ef14d37c7ed0ba8a5ba43d1f49c3c6bf654e8e9",
    "example2-controller":
        "cd8c7c4b32722bb8dc5af3b32fcd5fcb6defd9a30aeaf75d2d3d61fd28c6557e",
    "example1-external-monte-carlo":
        "ec2895c845fd676b4bf89ff37ef3285382ae2256afa1d386d526597f13511e89",
    "example1-external-antithetic":
        "9733a119ec7ca83c64f2684fa40902a6d51572cf5b6ee02e9ba19fd674782764",
    "example2-internal":
        "814bb84cfec7cd654c37690323794f92969421a88bbf2aa6dfca497951f064cc",
    "linear-brl-verify":
        "826278b6c9e21b7862f60b82878f5857188c6a3608b814959eb3d870c9774e9c",
    "linear-brl-search":
        "4c19369cff64f37f5db6b9b42f9a59143adfd91082e2bbb65c95647bcba4e17e",
    "linear-brl-search-plant":
        "cd3304645b9b1d3b72842240a247b678f7b640b82d2e1aa334d7c12216e4fc23",
    "linear-brl-search-static":
        "80b1a308b1fb3904f32a27db17ec96995ea892723e01e71edd183b8f6a6387c2",
    "linear-brl-verify-static":
        "3bcbea3a69c5aead8651a871f63152b35a7bcf7897e4c4bd1fbfbd270a6a041c",
}

PINNED = ("certificates.json", "margins.json", "linear_brl.json")


def run_digest(tmp_path, name):
    """The run's exit code, its pinned files and their one digest."""
    cfg = dict(RUNS[name][0], seed=7,
               output={"dir": str(tmp_path / "out"), "formats": ["csv"]})
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["certify", "--config", str(path)])
    out = tmp_path / "out"
    files = sorted(p.name for p in out.iterdir() if p.name in PINNED)
    digest = hashlib.sha256()
    for f in files:
        digest.update(f.encode() + b"\0" + (out / f).read_bytes())
    return code, files, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_certificate_artifacts_keep_their_bytes(tmp_path, name):
    code, files, digest = run_digest(tmp_path, name)
    assert code == RUNS[name][1]
    assert files
    assert digest == DIGESTS[name]
