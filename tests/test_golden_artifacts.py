"""Golden artifact bytes: the sha256 of six CLI artifacts.

The rows come from the subcommands whose artifacts do not depend on the
BLAS kernel: prop2, prop3, sigma-scan as CSV and as JSON, and ``svetlichny
--builtin merged-ghz3``, all at ``--seed 11`` with ``GME_SEED`` and
``SOURCE_DATE_EPOCH`` cleared.  Each of the six hashed identically under the
default OpenBLAS kernel and with ``OPENBLAS_CORETYPE`` set to
Haswell, Sandybridge, Prescott or Nehalem.  A change that moves one of these
bytes fails here, whatever its other tests compare against.  The two prop3
rows were re-recorded once, by the intended byte change that reads each
copy's pair off its surviving term instead of diagonalizing a reduced
density operator (floats moved by at most 6.7e-16); the kernel check was
repeated then.

The hashes were recorded with NumPy 2.4.6 built on OpenBLAS; under another
NumPy version, or a NumPy that reports no OpenBLAS, the rows are skipped
rather than compared.
"""

import hashlib

import numpy as np
import pytest

from gmesim.cli import main

NUMPY_VERSION = "2.4.6"

GOLDEN = {
    "prop2 --shots 30000 --seed 11":
        "28cbb697b7212c9cb519ac5c2ffaf73e55f80df73f5c39227c007e65ae86be17",
    "prop3 --shots 30000 --seed 11":
        "8b758f0679a120685bbe9d20bd9c837f708a14cfaaeeaa9b4259ec08cc03b329",
    "prop3 --no-mc --weights 1,2,3 --schmidt 1,2,3,4 --seed 11":
        "a988bad315b7b058eed7ce0a118411b7a921684321ad50aef60410492f307da8",
    "sigma-scan --p-list 0.1,0.5 --n-max 10 --shots 20000 --seed 11":
        "3eec8701c19f27b8402de85c38af4f15897f09738ac913fb62fbcbd435049501",
    "sigma-scan --p-list 0.5 --n-max 5 --shots 5000 --format json --seed 11":
        "81b21900facf806bb725cd868afec6946a7597987c18406cbc2ee26f91b9c79b",
    "svetlichny --builtin merged-ghz3 --seed 11":
        "d9ffb2ef6336239053ddcf6c1ee318584d0ed0e7d16327505562d7e6ef67940d",
}


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # no dict mode before NumPy 1.26
        return ""


pytestmark = [
    pytest.mark.skipif(
        np.__version__ != NUMPY_VERSION,
        reason=f"hashes recorded with NumPy {NUMPY_VERSION}, running {np.__version__}",
    ),
    pytest.mark.skipif(
        "openblas" not in _blas_name().lower(), reason="NumPy reports no OpenBLAS"
    ),
]


@pytest.mark.parametrize("argv", list(GOLDEN))
def test_artifact_bytes_match_the_recorded_hash(monkeypatch, capsys, argv):
    monkeypatch.delenv("GME_SEED", raising=False)
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
