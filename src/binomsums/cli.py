"""Command-line front end.

Four subcommands:

* ``verify``      run congruence rows over a prime range and report residues
* ``identities``  run the exact polynomial/recursion identity suites
* ``eta``         print eta-product Fourier coefficient tables
* ``repr``        print p = x^2 + d*y^2 representations

Output is deterministic: without ``--timings`` the emitted rows are
byte-identical from run to run (the jsonl meta header carries the only
timestamp).  Exit status is 0 for success, 1 if any proven row failed, and 2
for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone

from . import __version__
from .arith import is_prime, primes_in_range, represent
from .congruences import FAIL, CongruenceReport, all_ids, default_ids, iter_suite
from .identities import SUITES, run_identity_suite
from .qseries import ETA_PRODUCTS, coefficient_table

FORMATS = ("human", "jsonl", "csv")


@dataclass
class RunConfig:
    """Resolved options for a ``verify`` run (flags > config file > defaults)."""

    lo: int = 5
    hi: int = 100
    primes: list[int] | None = None  # explicit list wins over the range
    ids: list[str] = field(default_factory=default_ids)
    fmt: str = "human"
    out: str | None = None
    jobs: int = 1
    timings: bool = False
    log: str | None = None
    mod_exp: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.primes is None:
            if self.lo < 5:
                raise ValueError("prime range must start at 5 or above")
            if self.hi < self.lo:
                raise ValueError("empty prime range")
        elif not self.primes:
            raise ValueError("explicit prime list is empty")
        else:
            bad = [q for q in self.primes if q < 5 or not is_prime(q)]
            if bad:
                raise ValueError(
                    "prime list entries must be primes >= 5, got "
                    + ", ".join(map(str, bad))
                )
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}")
        known = set(all_ids())
        for i in list(self.ids) + list(self.mod_exp):
            if i not in known:
                raise ValueError(f"unknown congruence id {i!r}")
        for i, k in self.mod_exp.items():
            if k < 1:
                raise ValueError(f"modulus exponent for {i} must be >= 1")

    def prime_iter(self) -> list[int]:
        if self.primes is not None:
            return sorted(set(self.primes))
        return primes_in_range(self.lo, self.hi)


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise ValueError(f"expected LO..HI, got {text!r}")
    return int(lo), int(hi)


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _parse_mod_exp(chunks: list[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in chunks:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, val = item.partition("=")
            if not sep or not val.lstrip("-").isdigit():
                raise ValueError(f"expected ID=K, got {item!r}")
            out[name.strip()] = int(val)
    return out


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


_CONFIG_KEYS = {
    "primes", "prime-list", "ids", "format", "out", "jobs",
    "include-experimental", "timings", "log", "mod-exp",
    "order", "grid-n", "grid-p", "d",
}


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, val = line.partition("=")
            key = key.strip()
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = val.strip()
    return values


def _setting(args, config: dict[str, str], flag: str, conv=str):
    """Flag value if given, else config-file value, else None."""
    val = getattr(args, flag.replace("-", "_"), None)
    if val is not None:
        return val
    if flag in config:
        return conv(config[flag])
    return None


# --- output -----------------------------------------------------------------


def _emit(rows, columns, fmt, out, command, human_row, footer=None):
    """Write rows, each a sequence in column order, as they are produced.

    ``footer`` (human format only) is called after the last row, so it can
    report totals counted while the rows went out.  Only jsonl carries a
    timestamp.
    """
    sink = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        if fmt == "csv":
            writer = csv.writer(sink)
            writer.writerow(columns)
            writer.writerows(rows)  # None is written as ""
        elif fmt == "jsonl":
            meta = {
                "command": command,
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "version": __version__,
            }
            print(json.dumps({"meta": meta}, sort_keys=True), file=sink)
            sink.writelines(json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n"
                            for row in rows)
        else:
            sink.writelines(human_row(row) + "\n" for row in rows)
            if footer:
                print(footer(), file=sink)
    finally:
        if out:
            sink.close()


# --- subcommands ------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    try:
        config = _load_config(args.config) if args.config else {}
        lo, hi = 5, 100
        primes = None
        rng = _setting(args, config, "primes")
        if rng is not None:
            lo, hi = _parse_range(rng) if isinstance(rng, str) else rng
        lst = _setting(args, config, "prime-list")
        if lst is not None:
            primes = _parse_int_list(lst) if isinstance(lst, str) else lst
        include_exp = _setting(args, config, "include-experimental", _parse_bool)
        ids_setting = _setting(args, config, "ids")
        if ids_setting is not None:
            ids = [i.strip() for i in ids_setting.split(",") if i.strip()] \
                if isinstance(ids_setting, str) else ids_setting
        else:
            ids = all_ids() if include_exp else default_ids()
        mod_exp_setting = _setting(args, config, "mod-exp")
        if mod_exp_setting is None:
            mod_exp = {}
        elif isinstance(mod_exp_setting, str):
            mod_exp = _parse_mod_exp([mod_exp_setting])
        else:
            mod_exp = _parse_mod_exp(mod_exp_setting)
        jobs = _setting(args, config, "jobs", int)
        cfg = RunConfig(
            lo=lo,
            hi=hi,
            primes=primes,
            ids=ids,
            fmt=_setting(args, config, "format") or "human",
            out=_setting(args, config, "out"),
            jobs=1 if jobs is None else jobs,
            timings=bool(_setting(args, config, "timings", _parse_bool)),
            log=_setting(args, config, "log"),
            mod_exp=mod_exp,
        )
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    reports = iter_suite(
        cfg.prime_iter(),
        cfg.ids,
        jobs=cfg.jobs,
        mod_exp=cfg.mod_exp,
        timings=cfg.timings,
    )
    counts: Counter[str] = Counter()

    def tally(log):
        """The reports as they arrive, counted and, with --log, logged."""
        for r in reports:
            counts[r.status] += 1
            if log:
                line = {"ts": datetime.now(timezone.utc).isoformat(), "record": r._asdict()}
                print(json.dumps(line, sort_keys=True), file=log)
            yield r

    def footer():
        return "checked {} rows: {}".format(
            sum(counts.values()),
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "nothing",
        )

    def human(r):
        head = f"{r.id} p={r.p}"
        if r.params:
            head += f" {r.params}"
        if r.status == "skipped":
            return f"{head}: skipped"
        text = f"{head} mod {r.modulus}: {r.status} lhs={r.lhs} rhs={r.rhs}"
        if r.micros:
            text += f" ({r.micros}us)"
        return text

    with open(cfg.log, "a", encoding="utf-8") if cfg.log else nullcontext() as log:
        _emit(tally(log), CongruenceReport._fields, cfg.fmt, cfg.out, "verify", human, footer)
    return 1 if counts[FAIL] else 0


def _cmd_identities(args, parser) -> int:
    try:
        config = _load_config(args.config) if args.config else {}
        grid_n = _setting(args, config, "grid-n", int)
        grid_p = _setting(args, config, "grid-p", int)
        fmt = _setting(args, config, "format") or "human"
        out = _setting(args, config, "out")
        names = None
        ids_setting = _setting(args, config, "ids")
        if ids_setting is not None:
            names = [i.strip() for i in ids_setting.split(",") if i.strip()] \
                if isinstance(ids_setting, str) else ids_setting
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        if grid_n is not None and grid_n < 1:
            raise ValueError("grid-n must be >= 1")
        if grid_p is not None and grid_p < 2:
            raise ValueError("grid-p must be >= 2")
        records = run_identity_suite(grid_n=grid_n, grid_p=grid_p, names=names)
    except ValueError as exc:
        parser.error(str(exc))
    except OSError as exc:
        parser.error(str(exc))
    rows = [
        (r.name, r.params, r.checks, r.status,
         None if r.witness is None else list(r.witness))
        for r in records
    ]
    fails = [r for r in records if r.status != "pass"]

    def human(row):
        name, params, checks, status, witness = row
        text = f"{name} [{params}]: {status} ({checks} checks)"
        if witness is not None:
            text += f" witness={tuple(witness)}"
        return text

    _emit(rows, ["name", "params", "checks", "status", "witness"],
          fmt, out, "identities", human, lambda: f"{len(rows)} suites, {len(fails)} failing")
    return 1 if fails else 0


def _cmd_eta(args, parser) -> int:
    try:
        config = _load_config(args.config) if args.config else {}
        order = _setting(args, config, "order", int)
        order = 64 if order is None else order
        fmt = _setting(args, config, "format") or "human"
        out = _setting(args, config, "out")
        if order < 1:
            raise ValueError("order must be >= 1")
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    tables = {name: coefficient_table(name, order) for name in sorted(ETA_PRODUCTS)}
    rows = [
        (n, tables["a"][n], tables["b"][n], tables["c"][n]) for n in range(1, order + 1)
    ]
    _emit(rows, ["n", "a(n)", "b(n)", "c(n)"], fmt, out, "eta",
          lambda row: "n={} a={} b={} c={}".format(*row))
    return 0


def _cmd_repr(args, parser) -> int:
    try:
        config = _load_config(args.config) if args.config else {}
        d = _setting(args, config, "d", int)
        d = 1 if d is None else d
        fmt = _setting(args, config, "format") or "human"
        out = _setting(args, config, "out")
        rng = _setting(args, config, "primes")
        lo, hi = _parse_range(rng) if isinstance(rng, str) else (rng or (5, 100))
        if d < 1:
            raise ValueError("d must be >= 1")
        if lo < 5:
            raise ValueError("prime range must start at 5 or above")
        if hi < lo:
            raise ValueError("empty prime range")
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    rows = []
    for p in primes_in_range(lo, hi):
        if d > 1 and p % d == 0:
            continue  # p = x^2 + d y^2 with p | d has no primitive solution
        rep = represent(p, d)
        if rep is not None:
            rows.append((p, d, rep.x, rep.y))
    _emit(rows, ["p", "d", "x", "y"], fmt, out, "repr",
          lambda row: "p={0}: x={2} y={3} (p = x^2 + {1}*y^2)".format(*row))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomsums",
        description="exact checks of binomial-sum congruences, identities, "
        "eta-product coefficients and quadratic-form representations",
    )
    parser.add_argument("--version", action="version", version=f"binomsums {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, help="output format")
    common.add_argument("--out", help="write output to a file instead of stdout")
    common.add_argument("--config", help="key=value options file (flags win)")

    p_verify = sub.add_parser(
        "verify", parents=[common], help="check congruence rows over primes"
    )
    p_verify.add_argument("--primes", help="prime range LO..HI (default 5..100)")
    p_verify.add_argument("--prime-list", help="comma-separated primes")
    p_verify.add_argument("--ids", help="comma-separated row ids (default: proven rows)")
    p_verify.add_argument(
        "--include-experimental", action="store_const", const=True, default=None,
        help="also run conjectural rows",
    )
    p_verify.add_argument("--jobs", type=int, help="worker processes (default 1)")
    p_verify.add_argument(
        "--timings", action="store_const", const=True, default=None,
        help="fill the micros column with each row's marginal cost: its own "
        "evaluation, leaving out the shared per-prime tables, menus and sweeps "
        "(0 for table rows); off keeps output byte-identical",
    )
    p_verify.add_argument("--log", help="append jsonl records with timestamps here")
    p_verify.add_argument(
        "--mod-exp", action="append", metavar="ID=K",
        help="override modulus exponent for a row (repeatable)",
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_ids = sub.add_parser(
        "identities", parents=[common], help="run exact identity suites"
    )
    p_ids.add_argument("--ids", help=f"suite names (default all: {','.join(SUITES)})")
    p_ids.add_argument("--grid-n", type=int, help="override polynomial degree bound")
    p_ids.add_argument("--grid-p", type=int, help="override shift-relation prime bound")
    p_ids.set_defaults(func=_cmd_identities)

    p_eta = sub.add_parser(
        "eta", parents=[common], help="tabulate eta-product coefficients"
    )
    p_eta.add_argument("--order", type=int, help="truncation order (default 64)")
    p_eta.set_defaults(func=_cmd_eta)

    p_repr = sub.add_parser(
        "repr", parents=[common], help="solve p = x^2 + d*y^2 over a prime range"
    )
    p_repr.add_argument("--primes", help="prime range LO..HI (default 5..100)")
    p_repr.add_argument("--d", type=int, help="form coefficient d (default 1)")
    p_repr.set_defaults(func=_cmd_repr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
