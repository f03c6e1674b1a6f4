"""Byte-for-byte pins of whole CLI runs.

Each hash was taken from the output of the Pascal-sweep engine that the
step-relation shift engine replaced; a refactor that changes any residue,
status, row order or formatting byte changes the hash.  The jsonl format is
left out because its meta line carries a timestamp.
"""

import hashlib
import subprocess
import sys

import pytest

GOLDEN = [
    # every row, experimental ones included, over a small prime range
    (
        ("verify", "--primes", "5..300", "--include-experimental", "--format", "csv"),
        0,
        "2dbe2c653679e43c9fc099095ae1deb0e1932524c9386e54fb02d26fc5e3e10f",
    ),
    # the shift families at K >= 3, where the step relations' inhomogeneous
    # term is nonzero; the theorems only hold mod p^2, so most rows read
    # "fail" and the run exits 1
    (
        ("verify", "--primes", "5..150", "--ids", "C1_5,C1_19,C1_20,C1_21,C1_25",
         "--mod-exp", "C1_5=3,C1_19=4,C1_20=3,C1_21=4,C1_25=3", "--format", "csv"),
        1,
        "53ded0fcde76e8dbc79acf79ee796ad3e889fd2b6b337721a840fcf2aa18e71d",
    ),
    # the exact identity suites, whose step relations the shift engine uses
    (
        ("identities", "--format", "csv"),
        0,
        "8dab8a765892c68c269fc427f12de137ad5ffb137a2abe43eae0d6c20cfe9c6c",
    ),
    (
        ("eta", "--order", "64", "--format", "csv"),
        0,
        "0664dd32f8ddfa62417164287c803051f1099e5b2467c912ac8052a712a127e0",
    ),
]


@pytest.mark.parametrize(
    "args,status,digest", GOLDEN, ids=["all_rows", "shift_high_k", "identities", "eta"]
)
def test_golden_cli_output(args, status, digest):
    r = subprocess.run([sys.executable, "-m", "binomsums", *args], capture_output=True)
    assert r.returncode == status, r.stderr.decode()
    assert hashlib.sha256(r.stdout).hexdigest() == digest
