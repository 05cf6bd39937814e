"""Command-line interface: output schemas, exit codes, byte determinism."""

import hashlib
import importlib.metadata
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

from ffspectra import cli
from ffspectra.cli import main
from ffspectra.closed_forms import THEOREMS
from ffspectra.field import make_field
from ffspectra.functions import Monomial
from ffspectra.spectra import ddt_row_counts

import oracles as ref


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fbct_histogram_example(capsys):
    code, out, _ = run(capsys, "fbct", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=14", "--workers", "1")
    assert code == 0
    obj = json.loads(out)
    assert {tuple(pair) for pair in obj["histogram"]} == \
        {(0, 180), (4, 30)} or \
        {(p["value"], p["count"]) for p in obj["histogram"]} == \
        {(0, 180), (4, 30)}
    assert obj["uniformity"] == 4 and obj["beta"] == 4
    assert obj["nontrivial_cells"] == 210 and obj["trivial_cells"] == 46
    assert out.endswith("\n") and not out.endswith("\n\n")


def test_verify_pass_example(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "L2", "--p", "2",
                         "--n", "5", "--workers", "1")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["passed"] is True and obj["status"] == "passed"
    assert obj["elapsed_ms"] == 0.0


def test_kloosterman_both_example(capsys):
    code, out, _ = run(capsys, "kloosterman", "--n", "10", "--method", "both")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"n": 10, "direct": -56, "carlitz": -56}


def test_verify_failure_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "T2", "--p", "11",
                         "--n", "1", "--workers", "1")
    assert code == 1
    obj = json.loads(out)
    assert obj["status"] == "failed" and obj["passed"] is False
    assert obj["first_mismatch"]["observed"] == 2


def test_verify_hypothesis_error_exit_code(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "T1", "--p", "7",
                         "--n", "1", "--workers", "1")
    assert code == 2
    assert "hypothesis not satisfied" in err
    assert json.loads(out)["status"] == "hypothesis_error"


def test_verify_at_n_0_is_a_hypothesis_error(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "L1", "--n", "0")
    assert code == 2
    assert err == "hypothesis not satisfied: L1 requires n >= 1, got n=0\n"
    assert json.loads(out)["status"] == "hypothesis_error"


def test_usage_errors_exit_2(capsys, tmp_path):
    fbct = ("fbct", "--p", "2", "--n", "3", "--fn", "monomial:d=3", "--out")
    cases = [
        fbct + (str(tmp_path / "missing" / "x"),),          # no such directory
        fbct + (str(tmp_path),),                            # a directory
        ("verify", "--theorem", "NOPE", "--n", "4"),
        ("fbct", "--fn", "monomial:d=3"),                   # --n missing
        ("sumfree", "--p", "2", "--n", "4", "--fn", "monomial:d=3"),
        ("eval", "--p", "2", "--n", "4"),                   # --fn missing
        ("fbct", "--p", "2", "--n", "4", "--fn", "monomial:q/2"),
        ("verify", "--theorem", "L1", "--p", "2", "--n", "4", "--t", "3"),
        ("spectrum", "--p", "2", "--n", "4", "--fn", "monomial:d=3",  # no csv table
         "--format", "csv", "--keep-table"),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert out == ""


#: Fields past the size limit q <= 2^20, a power past the exponent
#: grammar's bit bound, a Carlitz n past n <= 4096, kept tables past
#: q <= 2^12 and a flats listing past 2^23 blocks: each must be refused at
#: once, before any modulus search, huge integer or listing is formed.
OVERSIZED = [
    ("field", "--p", "2", "--n", "62"),
    ("field", "--p", "3", "--n", "39"),
    ("field", "--p", "2", "--n", "100000000000"),
    ("verify", "--theorem", "T1", "--p", "5", "--n", "25"),
    ("verify", "--theorem", "T1", "--p", "5", "--n", "10000001"),
    ("verify", "--theorem", "C_F1", "--n", "40"),
    ("verify", "--theorem", "C_F2_VB", "--n", "41"),
    ("kloosterman", "--n", "40", "--method", "direct"),
    ("kloosterman", "--n", "4097", "--method", "carlitz"),
    ("kloosterman", "--n", "100000000", "--method", "both"),
    ("fbct", "--p", "2", "--n", "3", "--fn", "monomial:d=2^2^2^2^2^2"),
    ("fbct", "--p", "2", "--n", "20", "--fn", "monomial:d=3", "--keep-table"),
    ("flats", "--p", "2", "--n", "14", "--fn", "monomial:d=1", "--list"),
] + [(cmd, "--p", p, "--n", n, "--fn", "monomial:d=7", "--keep-table")
     for cmd in ("ddt", "fbct", "spectrum") for p, n in (("2", "13"), ("3", "8"))]


@pytest.mark.parametrize("argv", OVERSIZED, ids=" ".join)
def test_oversized_inputs_exit_2_promptly(argv):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "ffspectra.cli", *argv], env=env,
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


def test_a_table_code_above_2_64_exits_2_without_a_traceback():
    """The code 10^26 fits no numpy integer; the table check refuses it."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "ffspectra.cli", "eval", "--p", "2", "--n", "2",
                          "--fn", "table:0,1,2,99999999999999999999999999"],
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 2 and out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), out.stderr


@pytest.mark.parametrize("expr", ["0^-1", "(q-q)^(-2)"])
def test_a_zero_to_a_negative_power_exits_2_without_a_traceback(expr):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "ffspectra.cli", "ddt", "--p", "2", "--n", "3",
                          "--fn", f"monomial:d={expr}"],
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        f"error: division by zero in exponent expression {expr!r}"], out.stderr


def test_a_non_integer_formula_too_long_to_print_exits_2_with_its_message():
    """2^15000/3 has 4,516 digits, past Python's default int-to-str limit."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-m", "ffspectra.cli", "ddt", "--p", "2", "--n", "3",
                          "--fn", "monomial:d=2^15000/3"],
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "error: exponent expression '2^15000/3' is not an integer; "
        "check the divisibility hypothesis"], out.stderr


def test_an_endless_table_file_exits_2_under_a_memory_cap():
    """/dev/zero never ends: its read stops at the bound for GF(2^4), long before
    a 400 MB address-space cap (one BLAS thread, so the cap fits any core count)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1")
    capped = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (400_000_000,) * 2)\n"
              "import ffspectra.cli; sys.exit(ffspectra.cli.run())")
    out = subprocess.run([sys.executable, "-c", capped,
                          "ddt", "--p", "2", "--n", "4", "--fn", "table:@/dev/zero"],
                         env=env, capture_output=True, text=True, timeout=20)
    assert out.returncode == 2 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.splitlines() == [
        "error: table file '/dev/zero' has more than 66560 characters (64 a code, plus 2^16)"]


def test_identical_configs_are_byte_identical(tmp_path, capsys):
    argv = ["spectrum", "--p", "2", "--n", "5", "--fn", "monomial:d=30"]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--workers", "1", "--out", str(out1)]) == 0
    assert main(argv + ["--workers", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()

    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    vargv = ["verify", "--theorem", "T3", "--p", "5", "--n", "2",
             "--workers", "1"]
    assert main(vargv + ["--out", str(v1)]) == 0
    assert main(vargv + ["--out", str(v2)]) == 0
    capsys.readouterr()
    assert v1.read_bytes() == v2.read_bytes()


def test_odd_characteristic_ddt_beyond_the_old_table_limit(capsys):
    code, out, err = run(capsys, "ddt", "--p", "3", "--n", "8",
                         "--fn", "monomial:d=5", "--workers", "1")
    assert code == 0, err
    rep = json.loads(out)
    q = 3 ** 8
    # q - 1 rows a != 0, each summing to q over its q cells
    assert sum(h["count"] for h in rep["histogram"]) == (q - 1) * q
    assert sum(h["value"] * h["count"] for h in rep["histogram"]) == (q - 1) * q
    F = Monomial(make_field(3, 8), 5)
    assert all(int(ddt_row_counts(F, a).sum()) == q for a in range(q))


def test_out_file_leaves_stdout_empty(tmp_path, capsys):
    path = tmp_path / "k.json"
    code, out, err = run(capsys, "kloosterman", "--n", "4",
                         "--out", str(path))
    assert code == 0 and out == "" and err == ""
    assert path.read_text().endswith("\n")
    assert json.loads(path.read_text())["direct"] == 0


def test_csv_formats(capsys):
    code, out, _ = run(capsys, "ddt", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=14", "--format", "csv",
                       "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,count"
    assert all(len(line.split(",")) == 2 for line in lines)

    code, out, _ = run(capsys, "fbct", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=14", "--format", "csv",
                       "--keep-table", "--workers", "1")
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,value" and len(lines) == 1 + 16 * 16
    assert lines[1] == "0,0,16"

    code, out, _ = run(capsys, "verify", "--theorem", "L1", "--p", "2",
                       "--n", "4", "--format", "csv", "--workers", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert "passed,true" in lines and "first_mismatch,null" in lines

    code, out, _ = run(capsys, "kloosterman", "--n", "7", "--format", "csv")
    assert out.strip().splitlines() == ["n,7", "direct,-12", "carlitz,-12"]


def test_field_summaries(capsys):
    code, out, _ = run(capsys, "field", "--p", "2", "--n", "4")
    f = make_field(2, 4)
    obj = json.loads(out)
    assert code == 0
    assert obj["p"] == 2 and obj["n"] == 4 and obj["q"] == 16
    assert obj["char2"] is True and obj["modulus"] == f.modulus_text()
    assert obj["omega"] is not None and \
        f.mul_code(obj["omega"], f.mul_code(obj["omega"], obj["omega"])) == 1

    code, out, _ = run(capsys, "field", "--p", "2", "--n", "5")
    assert json.loads(out)["omega"] is None

    code, out, _ = run(capsys, "field", "--p", "7", "--n", "1",
                       "--format", "csv")
    assert "char2,False" in out.splitlines()


def test_eval_with_table_file(tmp_path, capsys):
    path = tmp_path / "tbl.txt"
    path.write_text("7, 6, 5, 4,\n3, 2, 1, 0\n")
    code, out, _ = run(capsys, "eval", "--p", "2", "--n", "3",
                       "--fn", f"table:@{path}")
    assert code == 0
    obj = json.loads(out)
    assert obj["values"] == [7, 6, 5, 4, 3, 2, 1, 0]

    code, out, _ = run(capsys, "eval", "--p", "2", "--n", "3",
                       "--fn", "table:7,6,5,4,3,2,1,0", "--format", "csv")
    assert out.splitlines()[:3] == ["x,F(x)", "0,7", "1,6"]


@pytest.mark.parametrize("chunk", [5, 16, 1 << 12])
def test_eval_writes_its_values_a_chunk_a_piece(monkeypatch, capsys, chunk):
    """eval hands its value table to the writer as one array, _CHUNK values
    a piece, a short last chunk included, and prints the bytes that
    json.dumps(indent=2) and one "x,F(x)" line a value give."""
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    values = [0, 1, 8, 15, 12, 10, 1, 1, 10, 15, 15, 12, 8, 10, 8, 12]  # x^3 on GF(2^4)
    argv = ["eval", "--p", "2", "--n", "4", "--fn", "monomial:d=3"]
    assert main(argv) == 0
    assert capsys.readouterr().out == json.dumps(
        {"field": {"p": 2, "n": 4, "modulus": "1,1,0,0,1"}, "function": "monomial:d=3",
         "values": values}, indent=2) + "\n"
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == "x,F(x)\n" + "".join(f"{x},{v}\n" for x, v in enumerate(values))


def test_flats_and_sumfree_commands(capsys):
    code, out, _ = run(capsys, "flats", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=14", "--list")
    assert code == 0
    obj = json.loads(out)
    assert obj["total_two_flats"] == 140 and obj["vanishing_count"] == 5
    assert len(obj["blocks"]) == 5

    code, out, _ = run(capsys, "sumfree", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=3", "--k", "2")
    obj = json.loads(out)
    assert code == 0 and obj["is_sum_free"] is True

    code, out, _ = run(capsys, "sumfree", "--p", "2", "--n", "4",
                       "--fn", "monomial:d=14", "--k", "2", "--format", "csv")
    lines = out.strip().splitlines()
    assert "is_sum_free,false" in lines
    assert any(line.startswith("violating_flat,") and "|" in line
               for line in lines)


@pytest.mark.parametrize("argv, digest", [
    ("flats --p 2 --n 6 --fn monomial:d=7 --list",
     "adff70eb6b62c8254e4c0c254ca02aeee97b29af212a46781f174dee4c4021a9"),
    ("flats --p 2 --n 6 --fn monomial:d=7 --list --format csv",
     "16b312e1811756dca5ad5ceffd37ed3c2915873263320f8b574605679d49d11b"),
    ("sumfree --p 2 --n 7 --fn monomial:d=7 --k 3",  # sum-free
     "60cfea395a7e2da76f51ab446ecf3d2a507f80dc5d2987f043e90871339df148"),
    ("sumfree --p 2 --n 6 --fn monomial:d=7 --k 2",  # reports a flat
     "c2b5b318e2e66c1a35055fafc6ec74ec0fe62e2e14fe876313b34ea8e90af24d"),
])
def test_flats_and_sumfree_stdout_bytes(capsys, argv, digest):
    """stdout of the block listing and of both sum-freedom verdicts, as
    recorded from the coset-loop and triple-scan implementation."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_with_gamma(capsys):
    f = make_field(2, 4)
    g = next(g for g in range(1, 16)
             if ref.trace(f, f.pow_code(g, 3)) == 0)
    code, out, _ = run(capsys, "verify", "--theorem", "T7", "--p", "2",
                       "--n", "4", "--t", "1", "--gamma",
                       f.from_code(g).text, "--workers", "1")
    assert code == 0
    obj = json.loads(out)
    assert obj["passed"] is True
    assert obj["params"]["gamma"] == f.from_code(g).text


def test_list_theorems(capsys):
    code, out, _ = run(capsys, "list-theorems")
    assert code == 0
    obj = json.loads(out)
    assert [row["id"] for row in obj["theorems"]] == list(THEOREMS)
    assert all(row["summary"] for row in obj["theorems"])

    code, out, _ = run(capsys, "list-theorems", "--format", "csv")
    lines = out.strip().splitlines()
    assert lines[0] == "id,summary" and len(lines) == 1 + len(THEOREMS)


#: sha256 of list-theorems stdout: every claim's summary and params, as the
#: benchmark's list-theorems job pins the JSON.
LIST_THEOREMS_SHA256 = {
    "json": "ef848bca13de934a1b71913535f9ff93611502d6259c916ed9d58068232634e5",
    "csv": "9e090e8be44913e0a56f4243b0f18bfec020c00d68bbf9b645813b8b21777e81",
}


@pytest.mark.parametrize("fmt", sorted(LIST_THEOREMS_SHA256))
def test_list_theorems_bytes_are_pinned(capsys, fmt):
    code, out, _ = run(capsys, "list-theorems", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LIST_THEOREMS_SHA256[fmt], out


def test_cli_paths_do_not_import_sympy():
    """sympy is a test dependency only: field set-up, tables and verify run
    without it."""
    script = textwrap.dedent("""
        import sys
        from ffspectra.cli import main
        for argv in (["field", "--p", "3", "--n", "10"],
                     ["verify", "--theorem", "T1", "--p", "11", "--n", "1"],
                     ["fbct", "--p", "2", "--n", "6", "--fn", "monomial:d=7"]):
            if main(argv) != 0:
                raise SystemExit(f"{argv} failed")
        print("sympy" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


#: Every command at a small size, with --keep-table and --list, run in both
#: formats (kept tables in both characteristics, a listing of many blocks and
#: an empty one); verify's hypothesis_error (T1 at p = 7) prints JSON under csv too.
WRITER_CASES = [
    "field --p 2 --n 4", "field --p 3 --n 2", "eval --p 2 --n 3 --fn monomial:d=3",
    *(f"{cmd} --p 2 --n 3 --fn monomial:d=3{keep}"
      for cmd in ("ddt", "fbct", "spectrum") for keep in ("", " --keep-table")),
    *(f"{cmd} --p {p} --n {n} --fn monomial:d=5 --keep-table"
      for cmd in ("ddt", "fbct", "spectrum") for p, n in ((2, 4), (3, 3))),
    "flats --p 2 --n 4 --fn monomial:d=14", "flats --p 2 --n 4 --fn monomial:d=14 --list",
    "flats --p 2 --n 6 --fn monomial:d=7 --list", "flats --p 2 --n 4 --fn monomial:d=3 --list",
    "sumfree --p 2 --n 6 --fn monomial:d=7 --k 2", "sumfree --p 2 --n 5 --fn monomial:d=3 --k 2",
    "kloosterman --n 4", "kloosterman --n 5 --method carlitz",
    "verify --theorem L2 --p 2 --n 3", "verify --theorem T2 --p 11 --n 1",
    "verify --theorem T1 --p 7 --n 1", "list-theorems",
]


def _whole_text(result) -> str:
    """What a command printed while each one built its whole text, a held
    array as its nested lists."""
    text = (json.dumps(result, indent=2, default=lambda a: a.tolist())
            if isinstance(result, dict) else "\n".join(result))
    return text if text.endswith("\n") else text + "\n"


@pytest.mark.parametrize("batch", [None, 1, 2])
def test_streamed_output_is_the_whole_text(monkeypatch, capsys, tmp_path, batch):
    """stdout and --out carry the bytes of json.dumps(indent=2) or the joined
    lines, plus a final newline, whatever the batch size in characters."""
    if batch is not None:
        monkeypatch.setattr(cli, "_BATCH", batch)
    path = tmp_path / "out"
    for case in WRITER_CASES:
        for fmt in ("json", "csv"):
            argv = [*case.split(), "--format", fmt]
            if argv[0] == "spectrum" and "--keep-table" in argv and fmt == "csv":
                continue  # a usage error
            code, result = cli._COMMANDS[argv[0]](cli._config_from_args(argv))
            expected = _whole_text(result)
            capsys.readouterr()
            assert main(argv) == code, argv
            assert capsys.readouterr().out == expected, argv
            assert main([*argv, "--out", str(path)]) == code, argv
            assert path.read_bytes() == expected.encode(), argv
    monkeypatch.setattr(cli.algebra, "kloosterman", lambda n, method: len(method))
    code, result = cli._COMMANDS["kloosterman"](cli._config_from_args(
        ["kloosterman", "--n", "4", "--format", "csv"]))
    assert code == 1 and result["equal"] is False  # a mismatch prints JSON under csv
    capsys.readouterr()
    assert main(["kloosterman", "--n", "4", "--format", "csv"]) == 1
    assert capsys.readouterr().out == _whole_text(result)


def test_a_stdout_error_is_not_an_out_error(monkeypatch):
    class Broken(io.StringIO):
        def write(self, text):
            raise BrokenPipeError("stdout closed")

    monkeypatch.setattr(sys, "stdout", Broken())
    with pytest.raises(BrokenPipeError):
        main(["kloosterman", "--n", "4"])


def _read_120_bytes_and_close(*command):
    """Run ``command`` with the arguments of a 9.2 MB JSON table and leave
    after 120 bytes, as `| head -c 120` does: exit status 1, empty stderr."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = "ddt --p 2 --n 10 --fn monomial:d=7 --keep-table".split()
    proc = subprocess.Popen([sys.executable, *command, *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(120).startswith(b"{")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == "", err  # no BrokenPipeError traceback


def test_a_closed_pipe_ends_without_a_traceback():
    _read_120_bytes_and_close("-m", "ffspectra.cli")


def test_the_console_script_ends_a_closed_pipe_without_a_traceback():
    """pyproject's `ffspectra` script, run as its installed wrapper runs it:
    import the function it names and exit with what it returns."""
    pyproject = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(pyproject, encoding="utf-8") as fh:
        target = re.search(r'^ffspectra = "([\w.]+:\w+)"$', fh.read(), re.M).group(1)
    installed = importlib.metadata.entry_points(group="console_scripts", name="ffspectra")
    assert all(ep.value == target for ep in installed), list(installed)
    module, func = target.split(":")
    _read_120_bytes_and_close("-c", f"import sys; from {module} import {func}; sys.exit({func}())")


#: argv and its bound on the traced peak in MiB
STREAMED = [
    ("ddt --p 2 --n 10 --fn monomial:d=7 --keep-table", 8),
    ("ddt --p 2 --n 10 --fn monomial:d=7 --keep-table --format csv", 8),
    ("fbct --p 2 --n 10 --fn monomial:d=7 --keep-table --format csv", 14),
    ("flats --p 2 --n 8 --fn monomial:d=1 --list", 20),
    ("flats --p 2 --n 8 --fn monomial:d=1 --list --format csv", 20),
]


@pytest.mark.parametrize("argv, mib", STREAMED, ids=[argv for argv, _ in STREAMED])
def test_kept_table_is_streamed_not_held_as_text(monkeypatch, argv, mib):
    """A 2^10 x 2^10 table, and the 690,880 blocks of x on GF(2^8), are
    written a row at a time from their narrow arrays: traced peaks of 5.4,
    5.1, 11.6, 13.9 and 13.9 MiB, where the tables and listings held as
    Python ints and lines traced 16.7, 10.5, 11.6, 95.3 and 137.7 MiB (85.6
    and 78.1 for the first and third when each command built its text
    first).  The fbct peak is its FBCT rows, not its text."""
    make_field(2, int(argv.split()[4])).tables()
    with open(os.devnull, "w", encoding="utf-8") as devnull:
        monkeypatch.setattr(sys, "stdout", devnull)
        tracemalloc.start()
        try:
            assert main(argv.split()) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < mib * 2 ** 20, peak / 2 ** 20


def test_a_big_output_piece_is_written_without_a_copy():
    """A piece of _BATCH characters or more is its own batch, so a 2^20-code
    table's `function` text is not copied into one more string on the way out."""
    big = "7," * cli._BATCH
    out = list(cli._batches(["[", big, "]"]))
    assert "".join(out) == "[" + big + "]"
    assert any(piece is big for piece in out)
