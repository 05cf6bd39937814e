#!/usr/bin/env python3
"""ffspectra benchmark: fresh-process CLI jobs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from the
checkout's `src/`.  Each workload is a fixed list of CLI jobs run as a closed
loop with one client: every job is a fresh `python -m ffspectra.cli` process,
started only after the previous one has ended, and every job passes
`--workers` so nothing depends on the machine's cpu count.  The seed only
generates the random value tables the program reads through `table:@path`.

`--trace 0` repeats passes over the job list until S seconds have passed (at
least one), then runs PROBE_SETS set-up probes per job, and reports:

  wall_s       median wall time of one pass (sum of the jobs' launch-to-exit)
  setup_s      median over probe sets of the summed probe times; a probe is a
               fresh process that imports ffspectra.cli, builds the job's
               field and tables and, with --fn, the value table, then stops
  peak_rss_mb  median over passes of the largest max-RSS of any job

`--trace 1` runs one plain pass and two passes through perfbench/traced.py,
which wraps each module's public functions, and reports per-layer metrics
(medians of the two traced passes) plus exact work counts computed from the
inputs.  Traced stdout must equal plain stdout byte for byte, and every
counter must repeat exactly between the two traced passes.

Every job's exit status and output are checked: the stdout sha256 must match
perfbench/expected.json, except for jobs on seeded inputs under another seed,
where spectrum invariants are checked instead.  The last stdout line is one
JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
PROBE_SETS = 2
RUN_DEADLINE_S = 170.0     # every run must end within 180 s
JOB_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Job:
    """One CLI invocation.  `{perm}`, `{low8}` and `{x884}` in the arguments
    name generated input files.  `rows` lists the functions (p, n, fn) whose
    FBCT rows a = 1..q-1 the job computes, `buckets` those whose vanishing
    flats it counts by pair buckets, `sumfree` the (n, fn, k) it checks; the
    benchmark derives its exact work counts from these."""
    name: str
    argv: tuple
    seeded: bool = False
    rows: tuple = ()
    buckets: tuple = ()
    sumfree: tuple = ()

    def opt(self, flag):
        return self.argv[self.argv.index(flag) + 1] if flag in self.argv else None


def prop_vb_functions(n: int, seed: int = 0, tables: int = 50) -> tuple:
    """The functions `verify --theorem PROP_VB` checks at its default seed and
    table count: every monomial, then seeded random value tables."""
    q = 1 << n
    rng = random.Random(seed)
    fns = [f"monomial:d={d}" for d in range(1, q)]
    fns += ["table:" + ",".join(str(rng.randrange(q)) for _ in range(q))
            for _ in range(tables)]
    return tuple((2, n, fn) for fn in fns)


W1 = ("--workers", "1")
PROP_VB_5 = prop_vb_functions(5)

# Why these workloads: fbct-perm is made of permutations and near-permutations
# in both characteristics, so every level set of d_a is tiny and the dense
# per-cell FBCT row scan is nearly all of the work; it covers the verify path,
# the spectrum path and the process pool.  fbct-lowimage uses the same row
# layer on functions with a tiny image, whose derivatives have huge level sets:
# a pair kernel that wins on fbct-perm and loses here shows as a regression.
# breadth is many short commands where FBCT rows do no work: cold start,
# odd-characteristic field set-up and its memory, DDT rows, flats, the
# sum-freedom coset loop and Kloosterman sums.
WORKLOADS = {
    "fbct-perm": (
        Job("verify-C_F2-n9", ("verify", "--theorem", "C_F2", "--n", "9") + W1,
            rows=((2, 9, "monomial:d=15"),)),
        Job("verify-C_F1-n8", ("verify", "--theorem", "C_F1", "--n", "8") + W1,
            rows=((2, 8, "monomial:d=15"),)),
        Job("verify-THMT-n9-t4", ("verify", "--theorem", "THMT", "--n", "9", "--t", "4") + W1,
            rows=((2, 9, "monomial:d=15"),)),
        Job("verify-T1-p11-n3", ("verify", "--theorem", "T1", "--p", "11", "--n", "3") + W1,
            rows=((11, 3, "monomial:d=887"),)),
        Job("fbct-perm-n9", ("fbct", "--p", "2", "--n", "9", "--fn", "table:@{perm}") + W1,
            seeded=True, rows=((2, 9, "table:@{perm}"),)),
        Job("fbct-invtrace-n10-w2",
            ("fbct", "--p", "2", "--n", "10", "--fn", "inv-plus-trace", "--workers", "2"),
            rows=((2, 10, "inv-plus-trace"),)),
    ),
    "fbct-lowimage": (
        Job("fbct-x884-p1327", ("fbct", "--p", "1327", "--n", "1", "--fn", "table:@{x884}") + W1,
            rows=((1327, 1, "table:@{x884}"),)),
        Job("fbct-low8-n9", ("fbct", "--p", "2", "--n", "9", "--fn", "table:@{low8}") + W1,
            seeded=True, rows=((2, 9, "table:@{low8}"),)),
    ),
    "breadth": (
        Job("list-theorems", ("list-theorems",) + W1),
        Job("field-p3-n10", ("field", "--p", "3", "--n", "10") + W1),
        Job("field-p2-n16", ("field", "--p", "2", "--n", "16") + W1),
        Job("ddt-p3-n7-d5", ("ddt", "--p", "3", "--n", "7", "--fn", "monomial:d=5") + W1),
        Job("flats-n11-d31", ("flats", "--p", "2", "--n", "11", "--fn", "monomial:d=31") + W1,
            buckets=((2, 11, "monomial:d=31"),)),
        Job("flats-n8-d7-list",
            ("flats", "--p", "2", "--n", "8", "--fn", "monomial:d=7", "--list") + W1),
        Job("sumfree-n7-d7-k3",
            ("sumfree", "--p", "2", "--n", "7", "--fn", "monomial:d=7", "--k", "3") + W1,
            sumfree=(7, "monomial:d=7", 3)),
        Job("kloosterman-n16", ("kloosterman", "--n", "16", "--method", "both") + W1),
        Job("verify-C_F2_VB-n13", ("verify", "--theorem", "C_F2_VB", "--n", "13") + W1,
            buckets=((2, 13, "monomial:d=63"),)),
        Job("verify-PROP_VB-n5", ("verify", "--theorem", "PROP_VB", "--n", "5") + W1,
            rows=PROP_VB_5, buckets=PROP_VB_5),
    ),
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# inputs and environment
# ---------------------------------------------------------------------------

def make_inputs(seed: int, work: Path) -> dict:
    """Write the seeded tables and the x^884 table on GF(1327); return paths."""
    rng = random.Random(seed)
    perm = list(range(512))
    rng.shuffle(perm)
    tables = {
        "perm": perm,                                   # random permutation of GF(2^9)
        "low8": [rng.randrange(8) for _ in range(512)],  # GF(2^9) -> {0..7}
        "x884": [pow(x, 884, 1327) for x in range(1327)],  # image size 4
    }
    paths = {}
    for name, values in tables.items():
        path = work / f"{name}.txt"
        path.write_text(",".join(map(str, values)) + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    cap = nproc()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        cur = env.get(var, "")
        env[var] = str(min(int(cur), cap)) if cur.isdigit() and int(cur) > 0 else str(cap)
    return env


def environment(env: dict, workload: str, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            sha = got.stdout.strip() if got.returncode == 0 else None
        except OSError:
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": workload, "seed": seed, "git_sha": sha,
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "sympy": importlib.metadata.version("sympy"),
            "nproc": nproc(), "src_lines": src_lines,
            "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
            "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"]}


# ---------------------------------------------------------------------------
# running one process
# ---------------------------------------------------------------------------

class RunDeadline(Exception):
    pass


class Runner:
    """Runs one process at a time in the work directory."""

    def __init__(self, env: dict, work: Path, deadline: float):
        self.env = env
        self.work = work
        self.deadline = deadline

    def run(self, cmd: list) -> dict:
        """Run cmd to completion; return rc, stdout bytes, wall, max RSS and
        the monotonic launch time.  The process group is killed at the job
        timeout or the run deadline; past the deadline nothing is started."""
        if time.monotonic() >= self.deadline:
            raise RunDeadline(f"run took longer than {RUN_DEADLINE_S:.0f} s")
        out_path = self.work / "stdout"
        err_path = self.work / "stderr"
        lock = threading.Lock()
        ended = False
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            launch = time.monotonic()
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=out,
                                    stderr=err, start_new_session=True)

            def kill():
                with lock:
                    if not ended:
                        os.killpg(proc.pid, signal.SIGKILL)

            limit = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
            timer = threading.Timer(limit, kill)
            timer.start()
            # WNOWAIT leaves the zombie in place, so its pid cannot be reused
            # before the timer is disarmed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - t0
            with lock:
                ended = True
            timer.cancel()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "stdout": out_path.read_bytes(),
                "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
                "wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "launch": launch}


def cli_argv(job: Job, inputs: dict) -> list:
    return [a.format(**inputs) for a in job.argv]


def check_output(job: Job, res: dict, seed: int, expected: dict) -> str | None:
    """Return why the job's result is wrong, or None."""
    if res["rc"] != 0:
        return f"exit status {res['rc']}: {res['stderr'].strip()[-300:]}"
    if not job.seeded or seed == DEFAULT_SEED:
        got = hashlib.sha256(res["stdout"]).hexdigest()
        if got != expected.get(job.name):
            return f"stdout sha256 {got} != recorded {expected.get(job.name)}"
    if job.argv[0] in ("ddt", "fbct"):
        rep = json.loads(res["stdout"])
        hist = {h["value"]: h["count"] for h in rep["histogram"]}
        if sum(hist.values()) != rep["nontrivial_cells"]:
            return "histogram counts do not sum to nontrivial_cells"
        if rep["uniformity"] != max(hist):
            return "uniformity is not the histogram's maximum value"
        if rep["kind"] == "fbct" and rep["field"]["p"] == 2 and \
                sum(v * c for v, c in hist.items()) % 24:
            return "FBCT mass is not a multiple of 24"
    return None


def run_pass(runner: Runner, jobs, inputs: dict, seed: int, expected: dict,
             traced: bool = False) -> list:
    results = []
    for i, job in enumerate(jobs):
        if traced:
            spans = runner.work / f"spans-{i}.json"
            cmd = [sys.executable, str(HERE / "traced.py"), str(spans), "--",
                   *cli_argv(job, inputs)]
        else:
            cmd = [sys.executable, "-m", "ffspectra.cli", *cli_argv(job, inputs)]
        res = runner.run(cmd)
        res["job"] = job
        res["error"] = check_output(job, res, seed, expected)
        if traced and res["error"] is None:
            res["spans"] = json.loads(spans.read_text(encoding="utf-8"))
        results.append(res)
        print(f"  {'traced ' if traced else ''}{job.name}: rc={res['rc']} "
              f"wall={res['wall']:.3f}s rss={res['rss_mb']:.1f}MB "
              f"sha256={hashlib.sha256(res['stdout']).hexdigest()} "
              f"{res['error'] or 'ok'}", flush=True)
    return results


def probe_spec(job: Job, inputs: dict) -> dict:
    spec = {}
    for key in ("p", "n", "k", "t"):
        val = job.opt(f"--{key}")
        spec[key] = int(val) if val is not None else None
    fn = job.opt("--fn")
    spec["fn"] = fn.format(**inputs) if fn else None
    return spec


def probe_set(runner: Runner, jobs, inputs: dict) -> tuple:
    """Summed set-up time of the jobs, and whether every probe succeeded."""
    total = 0.0
    ok = True
    for job in jobs:
        spec = json.dumps(probe_spec(job, inputs))
        res = runner.run([sys.executable, str(HERE / "probe.py"), spec])
        if res["rc"] != 0:
            print(f"  probe {job.name} failed: {res['stderr'].strip()[-300:]}")
            ok = False
            continue
        total += json.loads(res["stdout"])["end"] - res["launch"]
    return total, ok


# ---------------------------------------------------------------------------
# exact work counts, computed from the inputs outside the timed passes
# ---------------------------------------------------------------------------

def exact_counts(runner: Runner, jobs, inputs: dict) -> dict | None:
    """Run perfbench/counts.py on the workload's plan in its own process, so
    this process never imports the program and its RSS stays small (a child's
    max-RSS starts from its parent's)."""
    plan = {"rows": [], "buckets": [], "sumfree": []}
    for job in jobs:
        plan["rows"] += [(p, n, fn.format(**inputs)) for p, n, fn in job.rows]
        plan["buckets"] += [(p, n, fn.format(**inputs)) for p, n, fn in job.buckets]
        if job.sumfree:
            plan["sumfree"].append(job.sumfree)
    path = runner.work / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    res = runner.run([sys.executable, str(HERE / "counts.py"), str(path)])
    if res["rc"] != 0:
        print(f"error: counts.py failed: {res['stderr'].strip()[-300:]}")
        return None
    return json.loads(res["stdout"])


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

def layer_metrics(results: list) -> dict:
    calls, incl, self_s, counters = {}, {}, {}, {}
    import_s = value_table_s = 0.0
    for res in results:
        sp = res["spans"]
        import_s += sp["import_s"]
        value_table_s += sp["value_table_s"]
        for src, dst in ((sp["calls"], calls), (sp["incl_s"], incl),
                         (sp["self_s"], self_s), (sp["counters"], counters)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    wall = sum(r["wall"] for r in results)
    c = lambda key: calls.get(key, 0)          # noqa: E731
    s = lambda key: incl.get(key, 0.0)         # noqa: E731
    return {
        "spectra.fbct_row_counts_calls": c("spectra.fbct_row_counts"),
        "spectra.fbct_row_counts_s": s("spectra.fbct_row_counts"),
        "spectra.fbct_spectrum_s": s("spectra.fbct_spectrum"),
        "spectra.ddt_spectrum_s": s("spectra.ddt_spectrum"),
        "spectra.deriv_row_calls": c("spectra.deriv_row"),
        "spectra.deriv_row_s": s("spectra.deriv_row"),
        "spectra.pool_workers": counters["spectra.pool_workers"],
        "spectra.fbct_wall_frac": s("spectra.fbct") / wall,
        "field.make_field_calls": c("field.make_field"),
        "field.make_field_s": s("field.make_field"),
        "field.tables_calls": c("field.tables"),
        "field.tables_builds": counters["field.tables_builds"],
        "field.tables_s": s("field.tables"),
        "field.table_bytes": counters["field.table_bytes"],
        "field.mul_code_calls": c("field.mul_code"),
        "field.mul_code_s": s("field.mul_code"),
        "field.vadd_calls": c("field.vadd"),
        "field.vadd_s": s("field.vadd"),
        "functions.parse_s": s("functions.parse_function"),
        "functions.value_table_builds": counters["functions.value_table_builds"],
        "functions.value_table_s": value_table_s,
        "flats.vanishing_flats_s": s("flats.vanishing_flats"),
        "flats.sumfree_s": s("flats.is_kth_sum_free"),
        "flats.prop_identity_s": s("flats.check_prop_identity"),
        "closed_forms.verify_s": s("closed_forms.verify"),
        "closed_forms.self_s": self_s.get("closed_forms", 0.0),
        "closed_forms.cells_checked": counters["closed_forms.cells_checked"],
        "closed_forms.kloosterman_s": s("closed_forms.kloosterman"),
        "algebra.kernel_dim_calls": c("algebra.linearized_kernel_dim"),
        "algebra.kernel_dim_s": s("algebra.linearized_kernel_dim"),
        "cli.import_s": import_s,
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.stdout_bytes": sum(len(r["stdout"]) for r in results),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def failures(results: list) -> int:
    return sum(r["error"] is not None for r in results)


def run_plain(runner, jobs, inputs, seed, expected, seconds) -> tuple:
    passes = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        print(f"pass {len(passes) + 1}", flush=True)
        passes.append(run_pass(runner, jobs, inputs, seed, expected))
    setups, probes_ok = [], True
    for i in range(PROBE_SETS):
        print(f"probe set {i + 1}", flush=True)
        total, ok = probe_set(runner, jobs, inputs)
        setups.append(total)
        probes_ok &= ok
    walls = [sum(r["wall"] for r in p) for p in passes]
    rss = [max(r["rss_mb"] for r in p) for p in passes]
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(rss)}
    attempted = sum(len(p) for p in passes)
    failed = sum(failures(p) for p in passes)
    print(f"passes={len(passes)} wall_s per pass: {[round(w, 3) for w in walls]}")
    print(f"setup_s per probe set: {[round(s, 3) for s in setups]}")
    for name, unit in END_TO_END_UNITS.items():
        print(f"{name} = {metrics[name]:.4f} {unit}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4f}")
    return metrics, END_TO_END_UNITS, attempted, failed, probes_ok


def run_traced(runner, jobs, inputs, seed, expected) -> tuple:
    print("plain pass", flush=True)
    plain = run_pass(runner, jobs, inputs, seed, expected)
    traced, counts, problems = [], [], []
    for i in range(2):
        print(f"traced pass {i + 1}", flush=True)
        res = run_pass(runner, jobs, inputs, seed, expected, traced=True)
        for p, t in zip(plain, res):
            if t["stdout"] != p["stdout"]:
                t["error"] = t["error"] or "traced stdout differs from plain stdout"
        traced.append(res)
        counts.append(exact_counts(runner, jobs, inputs))
    attempted = len(plain) + sum(len(t) for t in traced)
    failed = failures(plain) + sum(failures(t) for t in traced)
    if failed:
        return {}, {}, attempted, failed, False
    for a, b in zip(*traced):
        for key in ("calls", "counters"):
            if a["spans"][key] != b["spans"][key]:
                problems.append(f"{a['job'].name}: {key} differ between traced passes")
    if counts[0] is None or counts[0] != counts[1]:
        problems.append("exact work counts failed or differ between passes")
    layers = [layer_metrics(t) for t in traced]
    metrics = {}
    for key in layers[0]:
        vals = [m[key] for m in layers]
        metrics[key] = vals[0] if vals[0] == vals[1] else statistics.median(vals)
    metrics.update(counts[0] or {})
    plain_wall = sum(r["wall"] for r in plain)
    traced_wall = statistics.median([sum(r["wall"] for r in t) for t in traced])
    metrics["bench.trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    units = {k: unit_of(k) for k in metrics}
    print(f"plain wall {plain_wall:.3f} s, traced wall {traced_wall:.3f} s")
    for key, val in metrics.items():
        print(f"{key} = {val} {units[key]}")
    for p in problems:
        print(f"error: {p}")
    return metrics, units, attempted, failed, not problems


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_frac", "_yield")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "ffspectra" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'ffspectra'}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    env = child_env()
    print("env " + json.dumps(environment(env, args.workload, args.seed)), flush=True)
    jobs = WORKLOADS[args.workload]
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "_work"))
    try:
        runner = Runner(env, work, time.monotonic() + RUN_DEADLINE_S)
        inputs = make_inputs(args.seed, work)
        if args.trace:
            metrics, units, attempted, failed, ok = run_traced(
                runner, jobs, inputs, args.seed, expected)
        else:
            metrics, units, attempted, failed, ok = run_plain(
                runner, jobs, inputs, args.seed, expected, args.seconds)
    except RunDeadline as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
