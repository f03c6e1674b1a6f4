"""Byte-for-byte pins of whole CLI runs.

Each hash was taken from the output of an earlier engine: the csv runs from
the Pascal-sweep engine that the step-relation shift engine replaced, the
human and jsonl runs from the list-building ``run_suite`` path that the
streaming ``iter_suite`` replaced.  A refactor that changes any residue,
status, row order, footer or formatting byte changes the hash.  The jsonl
meta line carries a timestamp, so only the body after it is hashed, and each
``--log`` record's ``ts`` is cut out before its file is hashed.
"""

import hashlib
import re
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
    # the rows whose summands read n = (p-1)/2 or that a function member
    # evaluates, at raised exponents; most fail past their proven exponent,
    # so the run exits 1
    (
        ("verify", "--primes", "5..300", "--ids", "C1_2,C1_9,C3_4,CR3_1,CL3_2,C4_1,C_AHL",
         "--mod-exp", "C1_2=4,C1_9=3,C3_4=4,CR3_1=3,CL3_2=4,C4_1=2,C_AHL=3", "--format", "csv"),
        1,
        "ddec266a40dbfd1f134e9122fbb0806f3681fccb2c13cee31e9379e80d1b4d7a",
    ),
    # the mod p^3 rows at p > 1000, where p^3 > 2^30, CL3_2 mod p^5 and CL3_3
    # mod p^4; taken before CL3_2 read its p^2-divisible half one exponent
    # lower.  Most fail past their proven exponent, so the run exits 1
    (
        ("verify", "--primes", "1000..1100", "--ids", "CL3_2,CL3_3,CGZ",
         "--mod-exp", "CL3_2=5,CL3_3=4", "--format", "csv"),
        1,
        "aded85b2d8e1374f0e6e16c77468343e7a5f10500ddfbec769dd716549bd07e1",
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
    # taken from the expansion by r passes of (1 - q^j) for every j, which the
    # pentagonal series replaced
    (
        ("eta", "--order", "2000", "--format", "csv"),
        0,
        "91a5ba1bd1a473e3d76801448e68266074c46829c854bab19eaf65ed9dee3f62",
    ),
    # the human format, whose footer totals are counted while rows stream out
    (
        ("verify", "--primes", "5..120", "--include-experimental", "--format", "human"),
        0,
        "6a20756498cbd282384f04cadb7d4d0d8defee404269f4d506ad8ff1f541ec0f",
    ),
    # the same run as jsonl, without its timestamped meta line
    (
        ("verify", "--primes", "5..120", "--include-experimental", "--format", "jsonl"),
        0,
        "7b9151faed2e6aeaaa762d0aeaf6922337259e2ae8dec51a7733e7ec5b31e4d3",
    ),
    # p = x^2 + d y^2 over 5..400, taken while ``QuadraticRepresentation`` was
    # a dataclass: d = 1 has the signed x = 1 (mod 4), d = 7 skips p = 7
    (
        ("repr", "--primes", "5..400", "--d", "1", "--format", "csv"),
        0,
        "39867e097e96344e3970810cae4ebc5e2303cc67016ad5d38d2f320bf5e290a1",
    ),
    (
        ("repr", "--primes", "5..400", "--d", "2", "--format", "csv"),
        0,
        "0f29442f80c60b1e0ba31f0da3c4e59d458789b7549c4f1bb343e7665d39a183",
    ),
    (
        ("repr", "--primes", "5..400", "--d", "3", "--format", "csv"),
        0,
        "41a92b46e1cde917f3bf8be07a006e3b7ea34a2a042e28c01a0a8569f02619f1",
    ),
    (
        ("repr", "--primes", "5..400", "--d", "7", "--format", "csv"),
        0,
        "42de8c26c3a56b85a95297b70dd98ab999ea55ac9d3fcb64f55c2a9cc5ed90ae",
    ),
    (
        ("repr", "--primes", "5..400", "--d", "1", "--format", "human"),
        0,
        "94d2febb4b62f6857478809eaabadb90548fb270b23b6b05f0a3b0aac77b4211",
    ),
]


@pytest.mark.parametrize(
    "args,status,digest",
    GOLDEN,
    ids=["all_rows", "shift_high_k", "raised_n_rows", "cube_rows_past_2_30", "identities", "eta",
         "eta_2000", "human", "jsonl_body", "repr_d1", "repr_d2", "repr_d3", "repr_d7",
         "repr_human"],
)
def test_golden_cli_output(args, status, digest):
    r = subprocess.run([sys.executable, "-m", "binomsums", *args], capture_output=True)
    assert r.returncode == status, r.stderr.decode()
    body = r.stdout.split(b"\n", 1)[1] if "jsonl" in args else r.stdout
    assert hashlib.sha256(body).hexdigest() == digest


# the --log records of the human run above, each without its "ts", taken from
# the report-tuple encoder that the column-block templates replaced
LOG_DIGEST = "c8c7c093d3c85567427b02a3a221ab286b65ff483dc9119ed8bc06d82f82d023"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_golden_log_records(jobs, tmp_path):
    log = tmp_path / "run.log"
    r = subprocess.run([sys.executable, "-m", "binomsums", "verify", "--primes", "5..120",
                        "--include-experimental", "--jobs", jobs, "--log", str(log)],
                       capture_output=True)
    assert r.returncode == 0, r.stderr.decode()
    body = log.read_bytes()
    masked, cut = re.subn(rb', "ts": "[^"]*"\}\n', b"}\n", body)
    assert cut == body.count(b"\n") > 5000  # one ts per record, each record one line
    assert hashlib.sha256(masked).hexdigest() == LOG_DIGEST
