"""End-to-end tests that drive the installed console entry point, and the
``verify`` encoders pinned in process to the report-by-report oracle."""

import csv
import io
import json
import multiprocessing
import os
import re
import subprocess
import sys

import pytest

from binomsums import cli, congruences
from binomsums.congruences import (FAIL, PASS, SKIPPED, XFAIL, XPASS, CongruenceReport, all_ids,
                                   block_rows, registry, run_suite)
from oracles import verify_block


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "binomsums", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def test_verify_basic_run():
    r = run_cli("verify", "--primes", "5..40", "--ids", "C1_12,C1_13")
    assert r.returncode == 0
    assert "C1_12 p=5 mod 25: pass lhs=8 rhs=8" in r.stdout
    assert "fail" not in r.stdout


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--primes", "4..4"),
        ("verify", "--primes", "11..7"),
        ("verify", "--primes", "abc"),
        ("verify", "--primes", "5..20", "--jobs", "0"),
        ("verify", "--primes", "5..20", "--ids", "NO_SUCH_ROW"),
        ("verify", "--primes", "5..20", "--mod-exp", "C1_7a=0"),
        ("verify", "--prime-list", "2,3"),
        ("eta", "--order", "0"),
        ("repr", "--primes", "4..9"),
        ("identities", "--ids", "no_such_suite"),
        ("verify", "--primes", "5..13", "--prime-list", "7"),
        ("verify", "--primes", "5..20", "--ids", ""),
        ("identities", "--ids", " , "),
        ("verify", "--primes", "24..28"),
        ("repr", "--primes", "24..28"),
        ("verify", "--prime-list", "5", "--mod-exp", ""),
    ],
)
def test_usage_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr


def test_digits_that_are_not_decimal_get_the_converters_own_messages(capsys):
    # '²' is a digit that is not decimal, and a second sign is no sign at all:
    # each is refused with the converter's own message, not argparse's
    # "invalid ... value" naming the converter
    for args, message in ((("--primes", "5..3²"), "expected LO..HI, got '5..3²'"),
                          (("--primes", "²..7"), "expected LO..HI, got '²..7'"),
                          (("--prime-list", "5", "--mod-exp", "C1_12=²"), "expected ID=K, got 'C1_12=²'"),
                          (("--prime-list", "5", "--mod-exp", "C1_12=--5"),
                           "expected ID=K, got 'C1_12=--5'")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *args])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and message in err and "invalid" not in err, (args, err)


@pytest.mark.parametrize("command", ["verify", "repr"])
def test_an_oversized_prime_range_exits_2_naming_it(command):
    # a sieve of HI + 1 bytes is refused before anything is allocated
    r = run_cli(command, "--primes", "5..100000000000000000000")
    assert r.returncode == 2 and "Traceback" not in r.stderr, r.stderr
    assert r.stderr.splitlines()[-1].endswith(
        "argument --primes: prime range 5..100000000000000000000 is too large to sieve")


def test_prime_list_rejects_composites_and_small_entries():
    r = run_cli("verify", "--prime-list", "9,15")
    assert r.returncode == 2
    assert "9, 15" in r.stderr and r.stdout == ""
    mixed = run_cli("verify", "--prime-list", "5,13,1,4,17")
    assert mixed.returncode == 2
    assert "1, 4" in mixed.stderr and "13" not in mixed.stderr


def test_csv_schema(tmp_path):
    out = tmp_path / "rows.csv"
    r = run_cli("verify", "--prime-list", "5,13", "--ids", "C1_7a,C1_8",
                "--format", "csv", "--out", str(out))
    assert r.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,p,params,modulus,lhs,rhs,status,micros"
    assert "C1_7a,5,,25,24,24,pass,0" in lines
    assert "C1_8,5,,25,3,3,pass,0" in lines


def test_jsonl_meta_header_and_deterministic_body(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for path in (a, b):
        r = run_cli("verify", "--primes", "5..30", "--format", "jsonl",
                    "--out", str(path))
        assert r.returncode == 0
    head = json.loads(a.read_text().splitlines()[0])
    assert "generated_at" in head["meta"]
    assert head["meta"]["command"] == "verify"
    # everything after the meta line is byte-identical between runs
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
    row = json.loads(a.read_text().splitlines()[1])
    assert set(row) == {"id", "p", "params", "modulus", "lhs", "rhs", "status", "micros"}


def test_eta_table():
    r = run_cli("eta", "--order", "8", "--format", "csv")
    lines = r.stdout.splitlines()
    assert lines[0] == "n,a(n),b(n),c(n)"
    assert "5,-6,0,0" in lines
    assert len(lines) == 9


def test_repr_found_rows_only():
    r = run_cli("repr", "--primes", "5..13", "--d", "1", "--format", "csv")
    # 7 and 11 admit no x^2 + y^2 representation and are omitted
    assert r.stdout.splitlines() == ["p,d,x,y", "5,1,1,2", "13,1,-3,2"]


def test_exit_one_only_for_proven_failures():
    forced = run_cli("verify", "--prime-list", "5", "--ids", "C1_7a",
                     "--mod-exp", "C1_7a=4")
    assert forced.returncode == 1
    assert "fail" in forced.stdout
    experimental = run_cli("verify", "--prime-list", "13", "--ids", "CR1_1",
                           "--mod-exp", "CR1_1=5")
    assert experimental.returncode == 0
    assert "experimental-fail" in experimental.stdout


def test_experimental_rows_need_opt_in():
    base = run_cli("verify", "--prime-list", "13")
    assert "CR1_1" not in base.stdout and "CGZ_P4" not in base.stdout
    opted = run_cli("verify", "--prime-list", "13", "--include-experimental")
    assert "CR1_1 p=13" in opted.stdout and "CGZ_P4 p=13" in opted.stdout
    named = run_cli("verify", "--prime-list", "13", "--ids", "CGZ_P4")
    assert "CGZ_P4 p=13 mod 28561: experimental-pass" in named.stdout
    assert named.returncode == 0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("primes = 5..30\nids = C1_12\nformat = csv\n# comment\n")
    from_config = run_cli("verify", "--config", str(cfg))
    assert from_config.stdout.startswith("id,p,params,modulus")
    assert ",C1_13," not in from_config.stdout
    overridden = run_cli("verify", "--config", str(cfg), "--ids", "C1_13")
    assert "C1_13,5,,25,15,15,pass,0" in overridden.stdout
    assert "C1_12," not in overridden.stdout


def test_unknown_config_key_rejected(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("prime = 5..30\n")
    assert run_cli("verify", "--config", str(cfg)).returncode == 2


def test_log_appends_timestamped_records(tmp_path):
    log = tmp_path / "runs.log"
    for _ in range(2):
        r = run_cli("verify", "--prime-list", "5", "--ids", "C1_7a",
                    "--log", str(log))
        assert r.returncode == 0
    lines = [json.loads(x) for x in log.read_text().splitlines()]
    assert len(lines) == 2
    for line in lines:
        assert set(line) == {"ts", "record"}
        assert line["record"]["id"] == "C1_7a"
        assert line["record"]["lhs"] == 24


def test_mod_exp_flag_changes_modulus():
    r = run_cli("verify", "--prime-list", "13", "--ids", "CGZ",
                "--mod-exp", "CGZ=2", "--format", "csv")
    assert "CGZ,13,,169,13,13,pass,0" in r.stdout


def test_timings_flag_fills_micros():
    cold = run_cli("verify", "--prime-list", "5", "--ids", "C1_7a", "--format", "csv")
    assert cold.stdout.splitlines()[1].endswith(",0")
    timed = run_cli("verify", "--prime-list", "5", "--ids", "C1_7a",
                    "--format", "csv", "--timings")
    micros = int(timed.stdout.splitlines()[1].rsplit(",", 1)[1])
    assert micros > 0


def test_identities_subcommand():
    r = run_cli("identities", "--grid-n", "12")
    assert r.returncode == 0
    assert "delannoy_square" in r.stdout
    assert "0 failing" in r.stdout


def test_unknown_identity_suite_names_the_known_ones():
    from binomsums.identities import SUITES

    r = run_cli("identities", "--ids", "nosuch")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert f"unknown identity suite 'nosuch' (known: {', '.join(SUITES)})" in r.stderr


def test_an_identity_suite_named_twice_prints_one_row():
    r = run_cli("identities", "--ids", "macmahon_cubes,macmahon_cubes", "--grid-n", "5")
    assert r.returncode == 0
    assert r.stdout.splitlines() == ["macmahon_cubes [n<=5]: pass (6 checks)",
                                     "1 suites, 0 failing"]


def test_jobs_flag_matches_serial():
    for fmt in ("csv", "human", "jsonl"):
        serial = run_cli("verify", "--primes", "5..60", "--format", fmt)
        parallel = run_cli("verify", "--primes", "5..60", "--jobs", "2", "--format", fmt)
        assert serial.returncode == parallel.returncode == 0
        skip = 1 if fmt == "jsonl" else 0  # the meta line carries a timestamp
        lines = serial.stdout.splitlines()[skip:]
        assert lines == parallel.stdout.splitlines()[skip:], fmt
        assert len(lines) > 100


def test_jobs_flag_logs_the_serial_records(tmp_path):
    logs = {}
    for jobs in ("1", "2"):
        logs[jobs] = tmp_path / f"run{jobs}.log"
        out = run_cli("verify", "--primes", "5..60", "--ids", "C1_2,C1_7a,CGZ",
                      "--format", "csv", "--jobs", jobs, "--log", str(logs[jobs]))
        assert out.returncode == 0
    rows = out.stdout.splitlines()[1:]
    serial, parallel = ([json.loads(x) for x in logs[j].read_text().splitlines()]
                        for j in ("1", "2"))
    assert len(serial) == len(rows) > 100  # one record per row
    assert all(set(line) == {"ts", "record"} for line in serial + parallel)
    assert [line["record"] for line in parallel] == [line["record"] for line in serial]


def _break_cgz_at(monkeypatch, p):
    from binomsums import congruences

    inner = congruences._evaluate

    def broken(row, ctx, kexp, v):
        if row.id != "CGZ":
            return inner(row, ctx, kexp, v)
        if ctx.p == p:
            raise ZeroDivisionError("broken row")
        return (0,), 0

    monkeypatch.setattr(congruences, "_evaluate", broken)


def _verify_until_the_broken_prime(tmp_path, *jobs):
    from binomsums import cli

    out = tmp_path / "rows.csv"
    with pytest.raises(ZeroDivisionError, match=r"row=CGZ, p=17"):
        cli.main(["verify", "--primes", "5..40", "--ids", "CGZ", "--format", "csv",
                  "--out", str(out), *jobs])
    lines = out.read_text().splitlines()
    assert lines[0] == "id,p,params,modulus,lhs,rhs,status,micros"
    assert [line.split(",")[1] for line in lines[1:]] == ["5", "7", "11", "13"]


def test_verify_streams_rows_before_a_failing_prime(tmp_path, monkeypatch):
    _break_cgz_at(monkeypatch, 17)
    _verify_until_the_broken_prime(tmp_path)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched row only when forked")
def test_verify_streams_rows_before_a_failing_prime_with_jobs(tmp_path, monkeypatch):
    _break_cgz_at(monkeypatch, 17)
    _verify_until_the_broken_prime(tmp_path, "--jobs", "2")


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers see the patched row only when forked")
def test_verify_with_jobs_writes_the_serial_bytes_before_a_failing_prime(tmp_path, monkeypatch):
    # 101's chunk, 83..109 of 5..400, starts with primes before the defect
    from binomsums import cli

    _break_cgz_at(monkeypatch, 101)
    written = []
    for jobs in ((), ("--jobs", "2")):
        out = tmp_path / "rows.csv"
        with pytest.raises(ZeroDivisionError, match=r"row=CGZ, p=101"):
            cli.main(["verify", "--primes", "5..400", "--format", "csv", "--out", str(out), *jobs])
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert written[0].decode().splitlines()[-1].split(",")[1] == "97"


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "--primes", "5..20", "--out", "{missing}/rows.csv"),
        ("verify", "--primes", "5..20", "--log", "{missing}/run.log"),
        ("eta", "--order", "8", "--out", "{missing}/eta.csv"),
    ],
)
def test_unwritable_output_path_is_a_usage_error(args, tmp_path, capsys, monkeypatch):
    from binomsums import cli, congruences

    def never(*args):
        raise AssertionError("a row was computed before the output was opened")

    # every row's block, table rows included, is built by _row_block
    monkeypatch.setattr(congruences, "_row_block", never)
    missing = tmp_path / "no_such_dir"
    argv = [a.format(missing=missing) for a in args]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert not missing.exists()


@pytest.mark.parametrize("exists", [False, True])
def test_out_and_log_naming_one_file_is_a_usage_error(exists, tmp_path, capsys, monkeypatch):
    # the "w" handle of --out would overwrite what the "a" handle of --log appended
    def never(*args):
        raise AssertionError("a row was computed before the paths were checked")

    monkeypatch.setattr(congruences, "_row_block", never)
    (tmp_path / "sub").mkdir()
    target = tmp_path / "rows.csv"
    if exists:
        target.write_text("kept\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    for log in (target, tmp_path / "sub" / ".." / "rows.csv", link):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--primes", "5..20", "--format", "csv",
                      "--out", str(target), "--log", str(log)])
        assert exc.value.code == 2
        assert "--out and --log name the same file" in capsys.readouterr().err
    assert target.read_text() == "kept\n" if exists else not target.exists()


@pytest.mark.parametrize(
    "command,lines,lineno",
    [
        pytest.param("verify", "primes = 5..20\norder = 5\n", 2, id="other-subcommands-key"),
        pytest.param("repr", "grid-n = 3\n", 1, id="repr-grid-n"),
        pytest.param("verify", "# workers\njobs = abc\n", 2, id="jobs-not-an-int"),
        pytest.param("verify", "format = xml\n", 1, id="format-not-a-choice"),
        pytest.param("verify", "primes = 5..13\nprime-list = 7\n", 2, id="both-prime-options"),
        pytest.param("verify", "ids =\n", 1, id="verify-no-ids"),
        pytest.param("identities", "ids =\n", 1, id="identities-no-ids"),
        pytest.param("eta", "order = 0\n", 1, id="order-below-1"),
        pytest.param("verify", "primes = 5..13\njobs = 0\n", 2, id="jobs-below-1"),
        pytest.param("verify", "mod-exp C1_7a=3\n", 1, id="key-with-a-space"),
    ],
)
def test_config_usage_errors_name_the_line(command, lines, lineno, tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text(lines)
    r = run_cli(command, "--config", str(cfg))
    assert r.returncode == 2, r.stderr
    assert f"{cfg}:{lineno}: " in r.stderr and "Traceback" not in r.stderr
    assert r.stdout == ""


@pytest.mark.parametrize(
    "args,config",
    [
        pytest.param(("verify", "--config", "{cfg}"), "jobs = abc\n", id="config-line"),
        pytest.param(("verify", "--prime-list", "5", "--ids", "NOPE"), None, id="unknown-id"),
        pytest.param(("verify", "--prime-list", "5", "--out", "{dir}/no_such_dir/rows.csv"), None,
                     id="unwritable-path"),
    ],
)
def test_verify_usage_errors_print_the_subcommands_usage(args, config, tmp_path):
    cfg = tmp_path / "opts.cfg"
    if config:
        cfg.write_text(config)
    r = run_cli(*(a.format(cfg=cfg, dir=tmp_path) for a in args))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("usage: binomsums verify "), r.stderr
    assert "binomsums verify: error: " in r.stderr and r.stdout == ""


# (subcommand, config line, the same option as flags, flags both runs share);
# {dir} is the run's own directory
CONFIG_KEYS = [
    ("verify", "primes = 5..40", ("--primes", "5..40"), ()),
    ("verify", "prime-list = 29,5,13", ("--prime-list", "29,5,13"), ()),
    ("verify", "ids = CGZ, C1_7a", ("--ids", "CGZ, C1_7a"), ()),
    ("verify", "include-experimental = yes", ("--include-experimental",), ("--prime-list", "13")),
    ("verify", "jobs = 2", ("--jobs", "2"), ("--primes", "5..60", "--format", "csv")),
    ("verify", "timings = on", ("--timings",),
     ("--prime-list", "5,13", "--ids", "C1_7a,CGZ", "--format", "csv")),
    ("verify", "log = {dir}/run.log", ("--log", "{dir}/run.log"), ("--primes", "5..30")),
    ("verify", "mod-exp = C1_12=3,CGZ=2", ("--mod-exp", "C1_12=3,CGZ=2"), ()),
    ("verify", "format = csv", ("--format", "csv"), ()),
    ("verify", "out = {dir}/rows.txt", ("--out", "{dir}/rows.txt"), ()),
    ("identities", "ids = delannoy_square", ("--ids", "delannoy_square"), ()),
    ("identities", "grid-n = 6", ("--grid-n", "6"), ()),
    ("identities", "grid-p = 7", ("--grid-p", "7"), ()),
    ("identities", "format = csv", ("--format", "csv"), ()),
    ("identities", "out = {dir}/ids.txt", ("--out", "{dir}/ids.txt"), ()),
    ("eta", "order = 12", ("--order", "12"), ()),
    ("eta", "format = csv", ("--format", "csv"), ()),
    ("eta", "out = {dir}/eta.txt", ("--out", "{dir}/eta.txt"), ()),
    ("repr", "primes = 5..60", ("--primes", "5..60"), ()),
    ("repr", "d = 2", ("--d", "2"), ()),
    ("repr", "format = csv", ("--format", "csv"), ()),
    ("repr", "out = {dir}/repr.txt", ("--out", "{dir}/repr.txt"), ()),
]


@pytest.mark.parametrize("command,line,flags,shared", CONFIG_KEYS,
                         ids=[f"{c}-{line.split()[0]}" for c, line, *_ in CONFIG_KEYS])
def test_config_key_gives_the_flags_bytes(command, line, flags, shared, tmp_path):
    results = []
    for side in ("file", "flag"):
        where = tmp_path / side
        where.mkdir()
        if side == "file":
            cfg = where / "opts.cfg"
            cfg.write_text(line.format(dir=where) + "\n")
            option = ("--config", str(cfg))
        else:
            option = tuple(a.format(dir=where) for a in flags)
        r = run_cli(command, *shared, *option)
        files = {f.name: f.read_text() for f in where.iterdir() if f.suffix != ".cfg"}
        if "run.log" in files:  # a record's ts is the time it was formatted
            files["run.log"] = [json.loads(x)["record"] for x in files["run.log"].splitlines()]
        # with --timings the micros vary from run to run; it is enough that both are filled
        stdout = re.sub(r",[1-9][0-9]*$", ",T", r.stdout, flags=re.M) if "--timings" in flags \
            else r.stdout
        results.append((r.returncode, r.stderr, stdout, files))
    assert results[0] == results[1]
    status, stderr, stdout, files = results[0]
    assert status in (0, 1) and stderr == "" and (stdout or files)
    if "--timings" in flags:
        assert ",T" in stdout and ",0\n" not in stdout


def test_flag_replaces_the_config_value_of_its_key(tmp_path):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("mod-exp = C1_12=3\nprimes = 5..30\nids = C1_12,C1_13\n")
    r = run_cli("verify", "--config", str(cfg), "--mod-exp", "C1_13=3", "--prime-list", "5")
    assert "C1_12 p=5 mod 25: pass" in r.stdout  # the file's C1_12=3 is replaced, not merged
    assert "C1_13 p=5 mod 125:" in r.stdout
    assert "p=7" not in r.stdout  # --prime-list replaces the file's primes


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_stdout_exits_without_a_traceback(jobs):
    # the whole output is far larger than a pipe buffer, so the run meets the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "binomsums", "verify", "--primes", "5..200", "--jobs", jobs],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"C1_1 p=5 ")
    proc.stdout.close()
    # a worker left running would hold stderr open past the timeout
    _, err = proc.communicate(timeout=120)
    assert b"Traceback" not in err, err.decode()
    assert proc.returncode not in (0, 1, 2)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args, stdout, named", [
    (("--primes", "5..20", "--out", "/dev/full"), os.devnull, "'/dev/full'"),
    (("--primes", "5..20", "--log", "/dev/full"), os.devnull, "'/dev/full'"),
    (("--primes", "5..20"), "/dev/full", "'<stdout>'"),  # met at the final flush
    (("--primes", "5..400", "--format", "csv"), "/dev/full", "'<stdout>'"),  # met mid-run
], ids=["out", "log", "stdout", "stdout-mid-run"])
def test_a_failed_write_exits_3_with_one_line_naming_the_file(args, stdout, named):
    with open(stdout, "w") as sink:
        r = subprocess.run([sys.executable, "-m", "binomsums", "verify", *args],
                           stdout=sink, stderr=subprocess.PIPE, text=True)
    assert r.returncode == 3
    (line,) = r.stderr.splitlines()
    assert line.startswith("binomsums: error: ") and line.endswith(named)


# --- verify's encoders against the report-by-report oracle -----------------


def _reports_of(blocks):
    return [CongruenceReport._make(r) for b in blocks for r in block_rows(b)]


def _assert_encoded_as_the_oracle(blocks):
    """Every format's rows, counts and --log records of ``blocks`` are the
    oracle's for their reports, byte for byte."""
    reports = _reports_of(blocks)
    for fmt in cli.FORMATS:
        for log in (False, True):
            text, counts, records = cli._verify_block(fmt, log, blocks)
            ts = json.loads(records.split("\n", 1)[0])["ts"] if log else ""
            assert (text, counts, records) == verify_block(fmt, log, reports, ts), (fmt, log)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 2003, 4001])
def test_verify_blocks_encode_as_the_oracle(p):
    blocks = congruences._suite_for_prime(p, tuple(all_ids()), {}, False)
    assert _reports_of(blocks) == run_suite([p])  # the library's reports are the blocks' rows
    assert {b[6] for b in blocks if type(b[6]) is str} >= {"skipped", "pass"}
    _assert_encoded_as_the_oracle(blocks)


@pytest.mark.parametrize("p", [13, 2003])
def test_verify_blocks_encode_as_the_oracle_with_timings(p):
    blocks = congruences._suite_for_prime(p, tuple(all_ids()), {}, True)
    assert any(us for b in blocks if type(b[7]) is list for us in b[7])  # some micros > 0
    _assert_encoded_as_the_oracle(blocks)


@pytest.mark.parametrize("p", [31, 101])
def test_verify_blocks_encode_as_the_oracle_with_failing_shifts(p):
    # the shift theorems hold mod p^2 only, so at p^3 and p^4 some shifts fail
    mod_exp = {"C1_5": 3, "C1_19": 4}
    blocks = congruences._suite_for_prime(p, tuple(all_ids()), mod_exp, False)
    reports = _reports_of(blocks)
    assert reports == run_suite([p], mod_exp=mod_exp)
    for rid in mod_exp:
        assert any(r.status == "fail" and r.lhs != r.rhs for r in reports if r.id == rid), rid
    _assert_encoded_as_the_oracle(blocks)


def test_the_engine_makes_no_string_that_csv_quotes():
    # the csv encoder is a plain template, so no string of a block may hold a
    # character that csv.writer quotes; a block's other fields are integers or None
    strings = [*all_ids(), *(row.param_name for row in registry()), PASS, FAIL, SKIPPED,
               XPASS, XFAIL]
    assert [s for s in strings if any(c in s for c in ',"\r\n')] == []


@pytest.mark.parametrize("text", ["", "100%", "a b"])
def test_csv_lines_are_csv_writers(text):
    blocks = [
        (f"X{text}", 7, ["k=0", "k=1"], 49, [1, 2], [1, 3], ["pass", "fail"], 0),
        ("X", 7, ["k=0", f"k{text}1"], 49, [1, 2], [1, 2], "pass", [3, 0]),
        ("X", 7, ["k=0", "k=1"], 343, [1, 2], [1, 2], ["pass", f"odd{text}"], 0),
        (f"Y{text}", 11, [f"{text}"], 121, None, None, "skipped", 0),
        ("Z", 11, [f"x={text}"], 121, [4], [5], f"fail{text}", 7),
        # rows that differ in one column, and rows all alike
        (f"W{text}", 7, ["k=0", "k=1"], 49, [0, 0], [0, 0], "pass", 0),
        (f"U{text}", 7, ["k", "k"], 49, [1, 2], [3, 3], "fail", 0),
        (f"V{text}", 7, ["k=0", "k=0"], 49, [0, 0], [0, 0], ["pass", "pass"], [0, 0]),
    ]
    for block in blocks:
        buf = io.StringIO()
        csv.writer(buf).writerows(block_rows(block))
        assert cli._verify_block("csv", False, [block])[0] == buf.getvalue(), block
    _assert_encoded_as_the_oracle(blocks)
