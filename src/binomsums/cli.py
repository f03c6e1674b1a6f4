"""Command-line front end.

Four subcommands:

* ``verify``      run congruence rows over a prime range and report residues
* ``identities``  run the exact polynomial/recursion identity suites
* ``eta``         print eta-product Fourier coefficient tables
* ``repr``        print p = x^2 + d*y^2 representations

Each subcommand's options are also the keys of its ``--config`` file: a line
``key = value`` is parsed as ``--key=value`` by the same argparse option, and
a flag on the command line replaces the file's value of its key.

Output is deterministic: without ``--timings`` the emitted rows are
byte-identical from run to run (the jsonl meta header carries the only
timestamp).  Exit status is 0 for success, 1 if any proven row failed, 2 for
usage errors (a bad flag or config line, an unknown id, an output path that
cannot be opened, ``--out`` and ``--log`` naming one file), 3 when the
program failed rather than a congruence (a write to the output, the log or
stdout failed, on a full disk say), and 141 (128 + SIGPIPE) when the reader
of stdout closed it before the output ended.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from datetime import datetime, timezone
from functools import lru_cache, partial

from . import __version__
from .arith import is_prime, primes_in_range, represent
from .congruences import FAIL, SKIPPED, CongruenceReport, all_ids, default_ids, iter_blocks

FORMATS = ("human", "jsonl", "csv")


# --- option values ----------------------------------------------------------
# Each converter is an option's ``type=``, so a config line goes through it too.


def _prime_range(text: str) -> list[int]:
    """The primes in ``LO..HI``, a range that starts at 5 or above and holds a prime."""
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdecimal() or not hi.isdecimal():
        raise argparse.ArgumentTypeError(f"expected LO..HI, got {text!r}")
    if int(lo) < 5:
        raise argparse.ArgumentTypeError("prime range must start at 5 or above")
    try:
        primes = primes_in_range(int(lo), int(hi))
    except (OverflowError, MemoryError):  # a sieve of HI + 1 bytes that cannot be made
        raise argparse.ArgumentTypeError(f"prime range {text} is too large to sieve") from None
    if not primes:
        raise argparse.ArgumentTypeError(f"no primes in {text}")
    return primes


def _items(text: str) -> list[str]:
    """Comma-separated items, at least one."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list, got {text!r}")
    return items


def _prime_list(text: str) -> list[int]:
    """Comma-separated primes, at least one, each 5 or above."""
    try:
        primes = list(map(int, _items(text)))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    bad = [q for q in primes if q < 5 or not is_prime(q)]
    if bad:
        raise argparse.ArgumentTypeError(
            "prime list entries must be primes >= 5, got " + ", ".join(map(str, bad)))
    return primes


def _mod_exp(text: str) -> list[tuple[str, int]]:
    """Comma-separated ``ID=K`` pairs; the ids and exponents are checked by the suite."""
    pairs = []
    for item in _items(text):
        name, sep, val = item.partition("=")
        if not sep or not val.removeprefix("-").isdecimal():
            raise argparse.ArgumentTypeError(f"expected ID=K, got {item!r}")
        pairs.append((name.strip(), int(val)))
    return pairs


def _boolean(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {text!r}")


def _at_least(least: int):
    """The converter of an integer option whose values start at ``least``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value
    return convert


def _read_config(path: str, keys: argparse.ArgumentParser) -> dict:
    """The option values set by the ``key = value`` lines of the file ``path``.

    ``keys`` parses each line as ``--key=value``, so a key is one of the
    subcommand's long options, written out in full, and its value goes
    through that option's conversion and choices.  A later line replaces an
    earlier one of the same key; two keys of one value (``primes`` and
    ``prime-list``) may not both be set.  ValueError names the file and line.
    """
    values: dict = {}
    setter: dict[str, str] = {}  # the key that set each value
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            where = f"{path}:{lineno}"
            if not sep:
                raise ValueError(f"{where}: expected key = value")
            try:
                parsed, unknown = keys.parse_known_args([f"--{key}={value}"])
            except argparse.ArgumentError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if unknown:
                raise ValueError(f"{where}: unknown key {key!r}")
            for dest, val in vars(parsed).items():
                if setter.setdefault(dest, key) != key:
                    raise ValueError(
                        f"{where}: argument --{key}: not allowed with argument --{setter[dest]}")
                values[dest] = val
    return values


# --- output -----------------------------------------------------------------


def _open_out(path, parser, mode="w"):
    """``path`` opened for text output, or an empty context when there is none.

    A path that cannot be opened (a missing directory, no permission) is a
    usage error, exit 2, rather than a traceback.
    """
    if not path:
        return nullcontext()
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        parser.error(str(exc))


@contextmanager
def _naming(path):
    """Name ``path`` in an OSError raised inside, a failed write say, that names no file."""
    try:
        yield
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def _same_file(a: str, b: str) -> bool:
    """Whether the paths ``a`` and ``b`` name one file: the same device and inode
    where both exist, else the same resolved path."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return os.path.realpath(a) == os.path.realpath(b)


def _text(fmt, columns, rows, human_row) -> str:
    """``rows``, each a sequence in column order, as text in ``fmt``, header left out."""
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)  # None is written as ""
        return buf.getvalue()
    if fmt == "jsonl":
        return "".join(json.dumps(dict(zip(columns, row)), sort_keys=True) + "\n"
                       for row in rows)
    return "".join(human_row(row) + "\n" for row in rows)


def _write(blocks, columns, fmt, out, parser, command, footer=None):
    """Write the header, each block of formatted rows as it is produced, then the footer.

    The output file (stdout when ``out`` is None) is opened before the first
    block is taken from ``blocks``.  ``footer`` (human format only) is called
    after the last block, so it can report totals counted while the blocks
    went out.  Only jsonl carries a timestamp, in its meta line.
    """
    with _naming(out or "<stdout>"), _open_out(out, parser) as opened:
        sink = opened or sys.stdout
        if fmt == "csv":
            csv.writer(sink).writerow(columns)
        elif fmt == "jsonl":
            meta = {
                "command": command,
                "generated_at": datetime.now(timezone.utc).isoformat(),
                "version": __version__,
            }
            print(json.dumps({"meta": meta}, sort_keys=True), file=sink)
        sink.writelines(blocks)
        if footer and fmt == "human":
            print(footer(), file=sink)


def _emit(rows, columns, fmt, out, parser, command, human_row, footer=None):
    """Write ``rows``, each a sequence in column order, as one block (see ``_write``)."""
    _write([_text(fmt, columns, rows, human_row)], columns, fmt, out, parser, command, footer)


_quoted = lru_cache(maxsize=None)(json.dumps)  # each distinct string JSON-quoted once
_spaced = lru_cache(maxsize=None)(lambda s: s and " " + s)  # the params of a human line

# each format's fields in order: (index in a column block, text before, encoding or None: str)
_CSV_FIELDS = [(i, "," if i else "", None) for i in range(8)]
_JSON_FIELDS = [(i, ", " * bool(j) + f'"{name}": ', _quoted if i in (0, 2, 6) else None)
                for j, (name, i) in enumerate(sorted(zip(CongruenceReport._fields, range(8))))]
_HUMAN_FIELDS = [(0, "", None), (1, " p=", None), (2, "", _spaced), (3, " mod ", None),
                 (6, ": ", None), (4, " lhs=", None), (5, " rhs=", None),
                 (7, "", lambda us: f" ({us}us)" if us else "")]


def _lines(block, fields, head, end, none) -> str:
    """The rows of a column block as lines of ``head``, ``fields`` and ``end``, None
    as ``none``: a field with one value for every row is encoded once into the text
    between the columns that vary, which a ``%`` template or, for one, a join fills in."""
    parts, columns = [head], []
    for i, before, encode in fields:
        value = block[i]
        if type(value) is list and value.count(value[0]) < len(value):
            parts[-1] += before
            parts.append("")
            columns.append(value if encode is None else list(map(encode, value)))
        else:
            value = value[0] if type(value) is list else value
            parts[-1] += before + (none if value is None else (encode or str)(value))
    parts[-1] += end
    if not columns:  # every row alike
        return parts[0] * len(block[2])
    if len(columns) == 1:  # rows that differ in one column: a join
        return parts[0] + (parts[1] + parts[0]).join(map(str, columns[0])) + parts[1]
    return "".join(map("%s".join(p.replace("%", "%%") for p in parts).__mod__, zip(*columns)))


_ENCODERS = {
    "csv": lambda block: _lines(block, _CSV_FIELDS, "", "\r\n", ""),
    "jsonl": lambda block: _lines(block, _JSON_FIELDS, "{", "}\n", "null"),
    "human": lambda block: (_lines(block, _HUMAN_FIELDS[:3], "", ": skipped\n", "None")
                            if block[6] == SKIPPED else _lines(block, _HUMAN_FIELDS, "", "\n", "None")),
}


def _verify_block(fmt: str, log: bool, blocks: list[tuple]):
    """One prime's column blocks as (their rows in ``fmt``, their status counts,
    their ``--log`` records, each with the time of the call as its ``ts``, or
    "" without ``log``), made in the pool worker under ``--jobs``."""
    counts: Counter[str] = Counter()
    for b in blocks:
        counts.update(b[6] if type(b[6]) is list else {b[6]: len(b[2])})
    end = '}, "ts": %s}\n' % json.dumps(datetime.now(timezone.utc).isoformat())
    records = [_lines(b, _JSON_FIELDS, '{"record": {', end, "null") for b in blocks if log]
    return "".join(map(_ENCODERS[fmt], blocks)), counts, "".join(records)


# --- subcommands ------------------------------------------------------------


def _cmd_verify(args, parser) -> int:
    if args.out and args.log and _same_file(args.out, args.log):
        parser.error("--out and --log name the same file")  # the rows would overwrite the log
    ids = args.ids or (all_ids() if args.include_experimental else default_ids())
    try:
        blocks = iter_blocks(
            args.primes,
            ids,
            encode=partial(_verify_block, args.format, bool(args.log)),
            jobs=args.jobs,
            mod_exp=dict(pair for chunk in args.mod_exp for pair in chunk),
            timings=args.timings,
        )
    except ValueError as exc:
        parser.error(str(exc))
    counts: Counter[str] = Counter()

    def tally(log):
        """Each prime's rows as they arrive, its statuses counted and its records logged."""
        for text, statuses, records in blocks:
            counts.update(statuses)
            if log:
                with _naming(args.log):
                    log.write(records)
            yield text

    def footer():
        return "checked {} rows: {}".format(
            sum(counts.values()),
            ", ".join(f"{k}={v}" for k, v in sorted(counts.items())) or "nothing",
        )

    with _naming(args.log), _open_out(args.log, parser, "a") as log:
        _write(tally(log), CongruenceReport._fields, args.format, args.out, parser, "verify",
               footer)
    return 1 if counts[FAIL] else 0


def _cmd_identities(args, parser) -> int:
    from .identities import run_identity_suite

    try:
        records = run_identity_suite(grid_n=args.grid_n, grid_p=args.grid_p, names=args.ids)
    except ValueError as exc:
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
          args.format, args.out, parser, "identities", human,
          lambda: f"{len(rows)} suites, {len(fails)} failing")
    return 1 if fails else 0


def _cmd_eta(args, parser) -> int:
    from .qseries import ETA_PRODUCTS, coefficient_table

    tables = {name: coefficient_table(name, args.order) for name in sorted(ETA_PRODUCTS)}
    rows = [
        (n, tables["a"][n], tables["b"][n], tables["c"][n]) for n in range(1, args.order + 1)
    ]
    _emit(rows, ["n", "a(n)", "b(n)", "c(n)"], args.format, args.out, parser, "eta",
          lambda row: "n={} a={} b={} c={}".format(*row))
    return 0


def _cmd_repr(args, parser) -> int:
    d = args.d
    rows = []
    for p in args.primes:
        if d > 1 and p % d == 0:
            continue  # p = x^2 + d y^2 with p | d has no primitive solution
        rep = represent(p, d)
        if rep is not None:
            rows.append((p, d, rep.x, rep.y))
    _emit(rows, ["p", "d", "x", "y"], args.format, args.out, parser, "repr",
          lambda row: "p={0}: x={2} y={3} (p = x^2 + {1}*y^2)".format(*row))
    return 0


def _config_keys(command, run, **defaults) -> None:
    """Make the options ``command`` has so far the keys of its ``--config`` file.

    The keys' parser takes full option names only and raises its errors, so
    ``_read_config`` can name the line.  ``defaults`` are the values of the
    options that neither the file nor a flag sets.
    """
    keys = argparse.ArgumentParser(parents=[command], add_help=False, allow_abbrev=False,
                                   exit_on_error=False)
    command.add_argument("--config", metavar="FILE",
                         help="key = value lines, each read as --key=value (flags win)")
    command.set_defaults(spec=(keys, {"format": "human", "out": None, **defaults}, run, command))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomsums",
        description="exact checks of binomial-sum congruences, identities, "
        "eta-product coefficients and quadratic-form representations",
    )
    parser.add_argument("--version", action="version", version=f"binomsums {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    # no option has an argparse default, so a parse holds only the keys it was given
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--format", choices=FORMATS, help="output format (default human)")
    common.add_argument("--out", help="write output to a file instead of stdout")

    def subcommand(name, help_text):
        return sub.add_parser(name, parents=[common], help=help_text,
                              argument_default=argparse.SUPPRESS)

    p_verify = subcommand("verify", "check congruence rows over primes")
    primes = p_verify.add_mutually_exclusive_group()
    primes.add_argument("--primes", type=_prime_range, metavar="LO..HI",
                        help="prime range (default 5..100)")
    primes.add_argument("--prime-list", dest="primes", type=_prime_list, metavar="P,...",
                        help="comma-separated primes")
    p_verify.add_argument("--ids", type=_items, help="comma-separated row ids (default: proven rows)")
    p_verify.add_argument("--include-experimental", nargs="?", const=True, type=_boolean,
                          metavar="BOOL", help="also run conjectural rows")
    p_verify.add_argument("--jobs", type=_at_least(1), help="worker processes (default 1)")
    p_verify.add_argument(
        "--timings", nargs="?", const=True, type=_boolean, metavar="BOOL",
        help="fill the micros column with each row's own evaluation time, which "
        "includes building each per-prime summand or seed it is the first row to need, "
        "and building or growing each factorial table it is the first row to need that "
        "far (0 for table rows, which step the shift chains); off keeps output "
        "byte-identical",
    )
    p_verify.add_argument(
        "--log",
        help="append one jsonl record per row here, timestamped when its prime's rows "
        "were formatted",
    )
    p_verify.add_argument(
        "--mod-exp", action="append", type=_mod_exp, metavar="ID=K",
        help="override modulus exponent for a row (repeatable)",
    )
    _config_keys(p_verify, _cmd_verify, primes=_prime_range("5..100"), ids=None,
                 include_experimental=False, jobs=1, timings=False, log=None, mod_exp=[])

    p_ids = subcommand("identities", "run exact identity suites")
    p_ids.add_argument("--ids", type=_items, help="suite names (default all)")
    p_ids.add_argument("--grid-n", type=_at_least(1), help="override polynomial degree bound")
    p_ids.add_argument("--grid-p", type=_at_least(2), help="override shift-relation prime bound")
    _config_keys(p_ids, _cmd_identities, ids=None, grid_n=None, grid_p=None)

    p_eta = subcommand("eta", "tabulate eta-product coefficients")
    p_eta.add_argument("--order", type=_at_least(1), help="truncation order (default 64)")
    _config_keys(p_eta, _cmd_eta, order=64)

    p_repr = subcommand("repr", "solve p = x^2 + d*y^2 over a prime range")
    p_repr.add_argument("--primes", type=_prime_range, metavar="LO..HI",
                        help="prime range (default 5..100)")
    p_repr.add_argument("--d", type=_at_least(1), help="form coefficient d (default 1)")
    _config_keys(p_repr, _cmd_repr, primes=_prime_range("5..100"), d=1)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    flags = vars(parser.parse_args(argv))
    # usage errors past this point print the subcommand's usage, as argparse's own do
    keys, defaults, run, command = flags.pop("spec")
    try:
        config = _read_config(flags.pop("config"), keys) if "config" in flags else {}
    except (ValueError, OSError) as exc:
        command.error(str(exc))
    try:
        status = run(argparse.Namespace(**{**defaults, **config, **flags}), command)
        with _naming("<stdout>"):
            sys.stdout.flush()  # so a closed pipe or a full disk is met here rather than at exit
    except BrokenPipeError:
        # the reader of stdout has gone: leave no traceback, and send the flush
        # at interpreter exit to devnull so that it cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE, the status of a process that SIGPIPE ended
    except OSError as exc:
        # a write failed: the program failed, not a congruence, so neither 1 nor a traceback
        if exc.filename == "<stdout>":
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"binomsums: error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
