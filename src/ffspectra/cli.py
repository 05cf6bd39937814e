"""Command-line front end; `--help` and README "Command-line interface" list
the commands.

Exit status: 0 on success, 1 when a verification found a mismatch,
2 on usage errors or when a statement's hypotheses are not met.

Identical invocations produce byte-identical output: JSON is emitted with
a fixed key order and timings are pinned to zero on this surface.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import algebra, closed_forms, flats, spectra  # lazy: each runs on first use
from .field import _CHUNK, Field, FieldError, make_field, omega
from .functions import parse_function


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffspectra",
        description="Exact differential and second-order zero differential "
                    "spectra over finite fields, with closed-form checkers.")
    ap.add_argument("command", choices=[
        "field", "eval", "ddt", "fbct", "spectrum", "flats", "sumfree",
        "kloosterman", "verify", "list-theorems"])
    ap.add_argument("--p", type=int, help="field characteristic (default 2)")
    ap.add_argument("--n", type=int, help="extension degree")
    ap.add_argument("--mod", dest="modulus",
                    help="modulus coefficients c0,c1,...,cn (constant first)")
    ap.add_argument("--fn", help="function text: monomial:d=<int or formula> | "
                                 "inv-plus-trace | gamma-trace-inverse:t=<int>,"
                                 "gamma=<coeffs> | table:<codes> | table:@<path>")
    ap.add_argument("--theorem", help="statement id for the verify command")
    ap.add_argument("--t", type=int, help="exponent parameter t")
    ap.add_argument("--k", type=int, help="exponent parameter k, or the flat "
                                          "dimension for sumfree")
    ap.add_argument("--gamma", help="element coefficients for gamma-bearing "
                                    "functions")
    ap.add_argument("--format", choices=["csv", "json"], default="json")
    ap.add_argument("--out", help="output path (default: standard output)")
    ap.add_argument("--workers", type=int, default=0,
                    help="accepted for compatibility; has no effect")
    ap.add_argument("--keep-table", action="store_true", dest="keep_table",
                    help="include the full q-by-q table in spectra output")
    ap.add_argument("--list", action="store_true", dest="list_items",
                    help="enumerate blocks in the flats command")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized verification batches")
    ap.add_argument("--method", choices=["direct", "carlitz", "both"],
                    default="both", help="Kloosterman evaluation method")
    return ap


def _config_from_args(argv) -> argparse.Namespace:
    """Everything a command run depends on; equal configs give equal bytes."""
    return _build_parser().parse_args(argv)


def _require_n(cfg: argparse.Namespace) -> int:
    if cfg.n is None:
        raise UsageError("this command requires --n")
    return cfg.n


def _modulus(cfg: argparse.Namespace):
    return None if cfg.modulus is None else [int(c) for c in cfg.modulus.split(",")]


def _field_from(cfg: argparse.Namespace) -> Field:
    return make_field(cfg.p if cfg.p is not None else 2, _require_n(cfg), _modulus(cfg))


def _function_from(cfg: argparse.Namespace, field: Field):
    if not cfg.fn:
        raise UsageError("this command requires --fn")
    return parse_function(field, cfg.fn, k=cfg.k, t=cfg.t)


_BATCH = 1 << 20  # characters a write; a write per piece made big outputs 2-3x slower


def _json_pieces(result: dict):
    """json.dumps(result, indent=2) in pieces, a 2-D array a row a piece, a 1-D
    one _CHUNK values a piece: json writes ``default``'s [None] as "[", the row
    indent and "null", then closes it."""
    held = []
    for piece in json.JSONEncoder(indent=2, default=lambda a: held.append(a) or [None]
                                  if len(a) else []).iterencode(result):
        if not held:
            yield piece
            continue
        a, row = held.pop(), piece[1:-4]
        if a.ndim == 1:
            yield from (("," if s else "[") + ",".join([row + "%d"] * c.size) % tuple(c.tolist())
                        for s, c in _chunks(a))
            continue
        fmt = row + "[" + ",".join([row + "  %d"] * a.shape[1]) + row + "]"
        yield from (("," if k else "[") + fmt % tuple(r.tolist()) for k, r in enumerate(a))


def _chunks(a):
    """(s, a[s:s + _CHUNK]) for each s."""
    return ((s, a[s:s + _CHUNK]) for s in range(0, a.size, _CHUNK))


def _emit(cfg: argparse.Namespace, result) -> None:
    r"""The one serializer: a dict as ``json.dumps(result, indent=2)`` writes
    it, other results as their lines joined by "\n", each text then ended by
    one "\n".  That is the rule "add a final \n when the text lacks one",
    because no command returns zero lines or ends on an empty line.  The text
    goes to stdout or --out in batches of _BATCH characters, never held whole."""
    pieces = (chain(_json_pieces(result), ["\n"]) if isinstance(result, dict)
              else (f"{line}\n" for line in result))
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.writelines(_batches(pieces))
        except OSError as exc:
            raise UsageError(f"cannot write --out {cfg.out!r}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.writelines(_batches(pieces))


def _batches(pieces):
    batch, size = [], 0
    for piece in pieces:
        if len(piece) >= _BATCH:  # a big piece is its own batch, which joins as no copy
            yield "".join(batch)
            batch, size = [], 0
        batch.append(piece)
        if (size := size + len(piece)) >= _BATCH:
            yield "".join(batch)
            batch, size = [], 0
    yield "".join(batch)


# ---------------------------------------------------------------------------
# command bodies; each returns (exit_code, a JSON-ready dict or CSV lines)
# ---------------------------------------------------------------------------

def _cmd_field(cfg: argparse.Namespace):
    field = _field_from(cfg)
    tb = field.tables()
    try:
        w = omega(field).code
    except FieldError:
        w = None
    obj = {"p": field.p, "n": field.n, "q": field.q,
           "modulus": field.modulus_text(), "generator": int(tb.gen),
           "char2": field.char2, "omega": w}
    if cfg.format == "csv":
        return 0, [f"{k},{'' if v is None else v}" for k, v in obj.items()]
    return 0, obj


def _cmd_eval(cfg: argparse.Namespace):
    field = _field_from(cfg)
    F = _function_from(cfg, field)
    if cfg.format == "csv":
        return 0, chain(["x,F(x)"], ("\n".join(["%d,%d"] * len(c)) % tuple(
            chain.from_iterable(zip(range(s, s + len(c)), c.tolist())))
            for s, c in _chunks(F.table())))
    return 0, {"field": {"p": field.p, "n": field.n, "modulus": field.modulus_text()},
               "function": F.text(), "values": F.table()}


def _cmd_one_spectrum(cfg: argparse.Namespace, spectrum):
    field = _field_from(cfg)
    F = _function_from(cfg, field)
    rep = spectrum(F, keep_table=cfg.keep_table)
    if cfg.format == "csv":
        if cfg.keep_table:
            return 0, spectra.table_csv_lines(rep.table)
        return 0, ["value,count"] + [f"{v},{c}" for v, c in sorted(rep.histogram)]
    return 0, rep.to_json_obj()


def _cmd_spectrum(cfg: argparse.Namespace):
    if cfg.format == "csv" and cfg.keep_table:
        raise UsageError("spectrum --format csv prints histograms only; "
                         "use --format json with --keep-table")
    field = _field_from(cfg)
    F = _function_from(cfg, field)
    ddt = spectra.ddt_spectrum(F, keep_table=cfg.keep_table)
    fbct = spectra.fbct_spectrum(F, keep_table=cfg.keep_table)
    if cfg.format == "csv":
        lines = ["kind,value,count"]
        lines += [f"ddt,{v},{c}" for v, c in sorted(ddt.histogram)]
        lines += [f"fbct,{v},{c}" for v, c in sorted(fbct.histogram)]
        return 0, lines
    return 0, {"ddt": ddt.to_json_obj(), "fbct": fbct.to_json_obj()}


def _cmd_flats(cfg: argparse.Namespace):
    field = _field_from(cfg)
    F = _function_from(cfg, field)
    rep = flats.vanishing_flats(F, list_blocks=cfg.list_items)
    if cfg.format == "csv":
        lines = [f"total_two_flats,{rep.total_two_flats}",
                 f"vanishing_count,{rep.vanishing_count}"]
        return 0, chain(lines, flats.flats_listing_lines(rep, field) if cfg.list_items else ())
    obj = {"field": {"p": field.p, "n": field.n, "modulus": field.modulus_text()},
           "function": F.text(),
           "total_two_flats": rep.total_two_flats,
           "vanishing_count": rep.vanishing_count}
    if cfg.list_items:
        obj["blocks"] = rep.listing
    return 0, obj


def _cmd_sumfree(cfg: argparse.Namespace):
    field = _field_from(cfg)
    F = _function_from(cfg, field)
    if cfg.k is None:
        raise UsageError("sumfree requires --k (flat dimension)")
    rep = flats.is_kth_sum_free(F, cfg.k)
    if cfg.format == "csv":
        flat = "|".join(map(str, rep.violating_flat or ()))
        return 0, [f"k,{rep.k}", f"is_sum_free,{str(rep.is_sum_free).lower()}",
                   f"violating_flat,{flat}"]
    return 0, {"k": rep.k, "is_sum_free": rep.is_sum_free,
               "violating_flat": rep.violating_flat}


def _cmd_kloosterman(cfg: argparse.Namespace):
    n = _require_n(cfg)
    if cfg.method == "both":
        direct = algebra.kloosterman(n, method="direct")
        carlitz = algebra.kloosterman(n, method="carlitz")
        if direct != carlitz:
            return 1, {"n": n, "direct": direct, "carlitz": carlitz, "equal": False}
        obj = {"n": n, "direct": direct, "carlitz": carlitz}
    else:
        obj = {"n": n, cfg.method: algebra.kloosterman(n, method=cfg.method)}
    if cfg.format == "csv":
        return 0, [f"{k},{v}" for k, v in obj.items()]
    return 0, obj


def _cmd_verify(cfg: argparse.Namespace):
    if not cfg.theorem:
        raise UsageError("verify requires --theorem (see list-theorems)")
    kwargs = dict(p=cfg.p, n=cfg.n, modulus=_modulus(cfg), t=cfg.t, k=cfg.k)
    if cfg.gamma is not None:
        kwargs["gamma"] = _field_from(cfg).from_text(cfg.gamma)
    kwargs = {k: v for k, v in kwargs.items() if v is not None}
    verdict = closed_forms.verify(cfg.theorem, seed=cfg.seed, **kwargs)
    obj = verdict.to_json_obj(fixed_time=True)
    if verdict.status == "hypothesis_error":
        sys.stderr.write((verdict.notes[0] if verdict.notes else
                          "hypothesis not satisfied") + "\n")
        return 2, obj
    code = 0 if verdict.passed else 1
    if cfg.format == "csv":
        keys = ("theorem", "passed", "cells_checked", "status", "first_mismatch")
        return code, ["key,value"] + [f"{key},{_csv_cell(obj[key])}" for key in keys]
    return code, obj


def _csv_cell(value) -> str:
    """A verdict value in one CSV cell: text and counts as they are, the rest as JSON."""
    return json.dumps(value) if value is None or isinstance(value, (bool, dict)) else str(value)


def _cmd_list_theorems(cfg: argparse.Namespace):
    rows = [{"id": tid, "summary": meta["summary"],
             "params": list(meta["params"])}
            for tid, meta in closed_forms.THEOREMS.items()]
    if cfg.format == "csv":
        return 0, ["id,summary"] + [f"{r['id']},\"{r['summary']}\"" for r in rows]
    return 0, {"theorems": rows}


_COMMANDS = {
    "field": _cmd_field,
    "eval": _cmd_eval,
    "ddt": lambda cfg: _cmd_one_spectrum(cfg, spectra.ddt_spectrum),
    "fbct": lambda cfg: _cmd_one_spectrum(cfg, spectra.fbct_spectrum),
    "spectrum": _cmd_spectrum,
    "flats": _cmd_flats,
    "sumfree": _cmd_sumfree,
    "kloosterman": _cmd_kloosterman,
    "verify": _cmd_verify,
    "list-theorems": _cmd_list_theorems,
}


def dispatch(cfg: argparse.Namespace) -> int:
    """Run one command; returns the process exit status."""
    try:
        code, result = _COMMANDS[cfg.command](cfg)
        _emit(cfg, result)
    except ValueError as exc:  # UsageError, HypothesisError, FunctionError, FieldError
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return code


def main(argv=None) -> int:
    return dispatch(_config_from_args(sys.argv[1:] if argv is None else argv))


def run() -> int:  # the `ffspectra` console script and `python -m ffspectra.cli`
    try:  # the Python docs' idiom for a reader that leaves early, as `| head` does
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    return code


if __name__ == "__main__":
    sys.exit(run())
