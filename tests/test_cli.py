"""End-to-end tests that drive the installed console entry point."""

import json
import subprocess
import sys

import pytest


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
    ],
)
def test_usage_errors_exit_2(args):
    r = run_cli(*args)
    assert r.returncode == 2, r.stderr


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


def test_jobs_flag_matches_serial():
    serial = run_cli("verify", "--primes", "5..60", "--format", "csv")
    parallel = run_cli("verify", "--primes", "5..60", "--jobs", "2", "--format", "csv")
    assert serial.stdout == parallel.stdout
    assert serial.returncode == parallel.returncode == 0


def test_verify_streams_rows_before_a_failing_prime(tmp_path, monkeypatch):
    from binomsums import cli, congruences

    def broken(ctx, kexp, _):
        if ctx.p == 17:
            raise ZeroDivisionError("broken row")
        return (0,), 0

    monkeypatch.setitem(congruences._EVAL, "CGZ", broken)
    out = tmp_path / "rows.csv"
    with pytest.raises(ZeroDivisionError, match=r"row=CGZ, p=17"):
        cli.main(["verify", "--primes", "5..40", "--ids", "CGZ", "--format", "csv",
                  "--out", str(out)])
    lines = out.read_text().splitlines()
    assert lines[0] == "id,p,params,modulus,lhs,rhs,status,micros"
    assert [line.split(",")[1] for line in lines[1:]] == ["5", "7", "11", "13"]
