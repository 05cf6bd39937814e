"""Run one ffspectra CLI command in this process with every layer wrapped.

Usage: python3 perfbench/traced.py SPANS_JSON -- <cli arguments>

The program under test is left untouched: after `import ffspectra.cli`, the
public functions of each module (and the few methods the benchmark reports on)
are replaced by wrappers that time each call.  A name another module imported
(e.g. `closed_forms.fbct_row_counts`) is replaced there too.  The CLI then
runs through `ffspectra.cli.main(argv)`; its stdout is the same bytes as an
untraced run.  Aggregates are written to SPANS_JSON when the command ends.

Layer self time is the sum over a layer's calls of the call's duration minus
the durations of its direct callees, so time spent in another layer's
functions is charged to that layer.  Spans inside forked pool workers are
not visible here.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

LAYERS = ("field", "functions", "spectra", "flats", "closed_forms", "algebra", "cli")

# (module, class, method) wrapped besides the module-level public functions.
METHODS = (
    ("field", "Field", "tables"),
    ("field", "Field", "mul_code"),
    ("field", "Field", "vadd"),
    ("functions", "FunctionUnderTest", "table"),
)

# Calls counted once for a group however they nest: FBCT rows are computed
# either through fbct_row_counts or inside fbct_spectrum.
GROUPS = {"spectra.fbct_row_counts": "spectra.fbct", "spectra.fbct_spectrum": "spectra.fbct"}


class Recorder:
    """Per-function call counts and inclusive time, per-layer self time."""

    def __init__(self):
        self.stack = []          # [start, time spent in direct callees]
        self.calls = {}
        self.incl = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.active = {}         # key or group -> open frames
        self.counters = {"field.tables_builds": 0, "field.table_bytes": 0,
                         "functions.value_table_builds": 0, "spectra.pool_workers": 0,
                         "closed_forms.cells_checked": 0}
        self.value_table_s = 0.0
        self.seen = {}           # id -> object already counted as a build, kept alive

    def wrap(self, layer, key, fn, on_result=None):
        rec = self
        names = (key, GROUPS[key]) if key in GROUPS else (key,)

        def wrapper(*args, **kwargs):
            outer = [k for k in names if not rec.active.get(k)]
            for k in names:
                rec.active[k] = rec.active.get(k, 0) + 1
            frame = [time.perf_counter(), 0.0]
            rec.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - frame[0]
                rec.stack.pop()
                rec.self_s[layer] += dt - frame[1]
                if rec.stack:
                    rec.stack[-1][1] += dt
                for k in names:
                    rec.active[k] -= 1
                rec.calls[key] = rec.calls.get(key, 0) + 1
                for k in outer:
                    rec.incl[k] = rec.incl.get(k, 0.0) + dt
            if on_result is not None:
                on_result(result, dt)
            return result

        return wrapper

    def first_sight(self, obj) -> bool:
        if id(obj) in self.seen:
            return False
        self.seen[id(obj)] = obj
        return True

    def on_tables(self, ns, dt):
        if self.first_sight(ns):
            self.counters["field.tables_builds"] += 1
            self.counters["field.table_bytes"] += sum(
                v.nbytes for v in vars(ns).values() if hasattr(v, "nbytes"))

    def on_value_table(self, table, dt):
        if self.first_sight(table):
            self.counters["functions.value_table_builds"] += 1
            self.value_table_s += dt

    def on_verdict(self, verdict, dt):
        self.counters["closed_forms.cells_checked"] += int(verdict.cells_checked)


def install(rec: Recorder) -> None:
    import multiprocessing.pool

    import ffspectra
    mods = {name: sys.modules[f"ffspectra.{name}"] for name in LAYERS}
    hooks = {"field.Field.tables": rec.on_tables,
             "functions.FunctionUnderTest.table": rec.on_value_table,
             "closed_forms.verify": rec.on_verdict}
    replaced = {}
    for layer, mod in mods.items():
        for name, obj in list(vars(mod).items()):
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                key = f"{layer}.{name}"
                replaced[id(obj)] = (obj, rec.wrap(layer, key, obj, hooks.get(key)))
    for modname, clsname, meth in METHODS:
        cls = getattr(mods[modname], clsname)
        key = f"{modname}.{meth}"
        setattr(cls, meth, rec.wrap(modname, key, getattr(cls, meth),
                                    hooks.get(f"{modname}.{clsname}.{meth}")))
    for mod in [ffspectra, *mods.values()]:
        for name, obj in list(vars(mod).items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])

    pool_init = multiprocessing.pool.Pool.__init__

    def counting_init(self, processes=None, *args, **kwargs):
        rec.counters["spectra.pool_workers"] += processes or 0
        pool_init(self, processes, *args, **kwargs)

    multiprocessing.pool.Pool.__init__ = counting_init


def main() -> int:
    out_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON -- <cli arguments>")
    t0 = time.perf_counter()
    import ffspectra.cli
    import_s = time.perf_counter() - t0
    rec = Recorder()
    install(rec)
    try:
        code = ffspectra.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit through here
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "value_table_s": rec.value_table_s,
                   "calls": rec.calls, "incl_s": rec.incl, "self_s": rec.self_s,
                   "counters": rec.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
