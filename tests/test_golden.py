"""Byte-identical CLI outputs: sha256 of every file six commands write.

The digests were recorded before the Adomian series became incremental;
those of the ex2 acceptance sweep (rank 8, M=16384) before the weighted
rule cached its back-map stencils; those of the two rank-6 / cubic
`validate` commands before the oracle's right-hand side moved to Python
floats. The JSON digests of the three sweeps were re-recorded when the
majorant radius R moved from a bounded numerical search to the roots of
its critical-point polynomial: `convergence.radius`, `ratio` and
`decay_factors` moved in the last bits, every other byte stayed. A
speedup must leave the digests as they are. A change that is meant to
move the numbers re-records them and says why in CHANGES.md.

Each command runs from a temporary working directory with a relative
problem path, so the JSON `problem` field does not depend on where the
checkout lives.
"""

import hashlib
import json
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from transeig import cli
from transeig.basis import ascending_branches
from transeig.fdcore import fd_solve
from transeig.model import load_problem
from transeig.residual import residual_by_rank

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"

#: Cubic q and three-term N, written next to the shipped problems so the
#: oracle's polynomial evaluation is pinned beyond ex1's q = x + 3x², N = u².
CUBIC = {"potential": {"kind": "polynomial", "coeffs": [1.0, -4.0, 7.0, 2.5]},
         "nonlinearity": {"coeffs_from_degree_1": [0.5, -2.0, 3.0]}}

GOLDEN = {
    "sweep-ex1-r12": (
        ["sweep", "--problem", "problems/example1.json", "--first", "3",
         "--rank", "12", "--mesh", "256"],
        {"II_1.csv": "8b9ebf3580597df6c4cf2be8dfc899f3e8dc10383dd71c974baf8ac31e6758f3",
         "II_1.json": "0e589a3ab0e0eb3346a8f65e4c3754729ecfe6ff6c97d867b98d9d335f9277dd",
         "I_minus_1.csv": "7c9f2a16dec7f6753fe7d57569b0bce569df8fee4bf1e8443580ffe4ed196fcf",
         "I_minus_1.json": "2491c859f38e3c9559f99b559d9dff1dc1d1dcd8b9b99cf483ea1d3745087ca8",
         "I_plus_0.csv": "6b883cf36f1249a9489a4af5e6883ba5d8d02ad90ccc7f8e2849d47645d2d558",
         "I_plus_0.json": "9d84f604e437cd22c710bc160baeb27669d32271c28969a10184f86eebee5cbc",
         "log_table.csv": "8a34aeb8872f8de32cbf92eeeb7fda702bf713512f3ed13cb48839064500638a"},
    ),
    "sweep-ex2-r6": (
        ["sweep", "--problem", "problems/example2.json", "--first", "2",
         "--rank", "6", "--mesh", "512"],
        {"II_1.csv": "d80bace0f7976177b56aa9b0cc38c7da8677ac71a9818c381e63828515e29eca",
         "II_1.json": "b0738c744e1d4e021578f983e078f1f90e5c3ee770e54aaffd59b88136e76618",
         "I_plus_0.csv": "bff5b024b43080ea1f1ed099c7f00f5ae4efc64f7c955b42e513bb2e61f45cb7",
         "I_plus_0.json": "1adefd7c42ea482e8d4584f17db98ab93a0c94d0b3690dd2abb58ee22555fbfa",
         "log_table.csv": "2a8c6420192e674364ddddcfb5708508240c49a4a225b2bbe12adc83e3539069"},
    ),
    "sweep-ex2-r8-m16384": (
        ["sweep", "--problem", "problems/example2.json", "--first", "4",
         "--rank", "8", "--mesh", "16384"],
        {"II_1.csv": "bc2bec7d80078d5d7a5cf822075a71a5116a3547ad29dac09b9e299efbe481b3",
         "II_1.json": "4d439d802db41f8c39a79e186618f24a34560158ae05a2493eb2348a8ebe74c0",
         "II_2.csv": "826afe005dfa4b1683af3baad6faa04ed5214d87215e88857981b251decefdb3",
         "II_2.json": "3a05ff162193ad8ac88f13896c153b6e1cee3daadbed4846d576e2cc94c54d6e",
         "I_minus_1.csv": "4a3132ef6e8c77fcaaaeeea2fd471c193a675f943fd9abe9eebdfa59bee4beba",
         "I_minus_1.json": "6f6525664dfc9f282bda6a6d3f454d5584adfc8977beb7f9482a766fd4a9bdab",
         "I_plus_0.csv": "02bdd15c4e59cb6f4f49ff57647ed76c47a1dc2c244a965abfcdbe6826a43b0a",
         "I_plus_0.json": "fb98b400c56ae785179b9ec9e7c732a6de86ac1c8e894b4bc6cdf61baf451748",
         "log_table.csv": "e003679e6d3a96a9636ae96295c7fe3a9508c95078a1ad7ad328ee7097b0c460"},
    ),
    "validate-ex1-r4": (
        ["validate", "--problem", "problems/example1.json", "--first", "2",
         "--rank", "4", "--mesh", "256"],
        {"validate.csv": "e0a1a7e897cb5fa745d622982d7a05f38129d389cd80dc686bd927e31228d523"},
    ),
    "validate-ex1-r6": (
        ["validate", "--problem", "problems/example1.json", "--first", "6",
         "--rank", "6"],
        {"validate.csv": "7c1e0b5444ba4162fc658a21659e753d366e165bfa829a040e46a1f869285969"},
    ),
    "validate-cubic-r4": (
        ["validate", "--problem", "problems/cubic.json", "--first", "3",
         "--rank", "4", "--mesh", "256"],
        {"validate.csv": "290ae99778535fdd18f542c632e8e4eee10cb698efa0eeeacabaa972e3a0bf08"},
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_outputs_are_byte_identical(name, tmp_path, monkeypatch, capsys):
    argv, digests = GOLDEN[name]
    shutil.copytree(PROBLEMS, tmp_path / "problems")
    (tmp_path / "problems" / "cubic.json").write_text(json.dumps(CUBIC))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "out"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert written == digests


def _solver_digest(problem) -> str:
    """sha256 of the raw correction arrays and per-rank residual norms.

    Covers lambda_j, c2_j and the bytes of u1, u2, du1, du2 of every
    correction, and norm1/norm2 of every residual_by_rank row, for the
    first three branches at rank 6 on M = 64. The CLI digests above see
    only printed sums and sup norms; this one sees every node value. The
    digests were recorded before the solver kept both panels of a field
    in one (2, M+1) array.
    """
    digest = hashlib.sha256()
    for branch in ascending_branches(3):
        sol = fd_solve(problem, branch, 6, 64)
        for c in sol.corrections:
            digest.update(struct.pack("<2d", c.lambda_j, c.c2_j))
            for piece in (c.u1, c.u2, c.du1, c.du2):
                digest.update(np.ascontiguousarray(piece.values,
                                                   dtype="<f8").tobytes())
        for row in residual_by_rank(sol):
            digest.update(struct.pack("<2d", row.norm1, row.norm2))
    return digest.hexdigest()


ARRAY_DIGESTS = {
    "example1": "debc6538ce690d628d5a03096d0d7d3615911856d2a4dea86593458e18676fd4",
    "example2": "d2d35d01b28fcd59cdb0c49b6cc32659f9cc81f7632f67d7e60caaada36155e0",
    "cubic": "dea23d9ac312f892e51343b3218688dbddd5c5d09856fb92dc2d9a696ee2e27d",
}


@pytest.mark.parametrize("name", list(ARRAY_DIGESTS))
def test_solver_arrays_are_byte_identical(name, tmp_path):
    if name == "cubic":
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(CUBIC))
    else:
        path = PROBLEMS / f"{name}.json"
    problem, _ = load_problem(path)
    assert _solver_digest(problem) == ARRAY_DIGESTS[name]
