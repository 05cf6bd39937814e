"""Package surface and lazy submodules: what each CLI command runs."""

import os
import subprocess
import sys

import pytest

import ffspectra
from ffspectra import algebra, closed_forms

LAZY = ("field", "functions", "spectra", "flats", "algebra", "closed_forms",
        "cell_claims", "count_claims", "spectrum_claims")


def test_every_exported_name_resolves():
    # the 25 names exported before lazy loading, less the deleted special_elements
    assert len(ffspectra.__all__) == 24
    for name in ffspectra.__all__:
        obj = getattr(ffspectra, name)
        home = ffspectra._HOME[name]
        assert obj is getattr(getattr(ffspectra, home), name), name
    namespace = {}
    exec("from ffspectra import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ffspectra.__all__)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        ffspectra.no_such_name
    assert not hasattr(ffspectra, "cli_")


def test_submodules_are_registered_and_kloosterman_lives_in_algebra():
    for name in LAZY:
        assert sys.modules[f"ffspectra.{name}"] is getattr(ffspectra, name)
    assert not hasattr(closed_forms, "kloosterman")
    assert ffspectra.kloosterman is algebra.kloosterman


#: A module has run once LazyLoader has turned its class back to ModuleType.
RAN = """
import contextlib, io, sys, types
import ffspectra.cli
argv = sys.argv[1:]
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        ffspectra.cli.main(argv)
print(" ".join(sorted(name[len("ffspectra."):] for name, mod in sys.modules.items()
                      if name.startswith("ffspectra.") and type(mod) is types.ModuleType)))
"""

BASE = {"cli", "field", "functions"}
SPECTRA = {"spectra", "walsh"}  # spectra imports its transform kernel's module
CLAIMS = BASE | SPECTRA | {"closed_forms"}  # every claim family reads spectra
COUNTS = {"count_claims", "flats", "algebra"}
F2 = ("--p", "2", "--n", "4", "--fn", "monomial:d=3")

#: (argv, the ffspectra modules that run): `import ffspectra.cli` alone runs
#: cli, field and functions; only verify and list-theorems run closed_forms,
#: and a verify runs the family module of its claim and what that imports.
COMMANDS = [
    ((), BASE),
    (("field", "--p", "3", "--n", "2"), BASE),
    (("eval",) + F2, BASE),
    (("ddt",) + F2, BASE | SPECTRA),
    (("fbct",) + F2, BASE | SPECTRA),
    (("spectrum",) + F2, BASE | SPECTRA),
    (("flats",) + F2, BASE | SPECTRA | {"flats"}),
    (("sumfree",) + F2 + ("--k", "2"), BASE | SPECTRA | {"flats"}),
    (("kloosterman", "--n", "4"), BASE | {"algebra"}),
    (("verify", "--theorem", "L2", "--p", "2", "--n", "5"), CLAIMS | {"cell_claims"}),
    (("verify", "--theorem", "C_F1_VB", "--n", "6"), CLAIMS | COUNTS),
    # S_6 is the value-4 set of C_F2's rows, so C_F2_VB reads it from cell_claims
    (("verify", "--theorem", "C_F2_VB", "--n", "7"), CLAIMS | COUNTS | {"cell_claims"}),
    (("verify", "--theorem", "APN_IFF_FBCT0", "--n", "4"), CLAIMS | {"spectrum_claims"}),
    (("list-theorems",), BASE | {"closed_forms"}),
]


def _name(argv):
    """The command word, and the claim of a verify of any id but L2."""
    return " ".join(argv[:1] + argv[2:3] * (argv[:1] == ("verify",) and argv[2] != "L2"))


@pytest.mark.parametrize("argv,ran", COMMANDS, ids=[_name(a) or "import" for a, _ in COMMANDS])
def test_each_command_runs_only_the_modules_it_uses(argv, ran):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", RAN, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) == ran


#: Walk the registry's globals as a tracer that wraps each layer does, then
#: print the claim families that ran.
WALK = """
import inspect, sys, types
import ffspectra.cli
from ffspectra import closed_forms
[inspect.isfunction(obj) for obj in list(vars(closed_forms).values())]
print(sorted(name for name, mod in sys.modules.items()
             if name.endswith("_claims") and type(mod) is types.ModuleType))
"""


def test_walking_the_registry_runs_no_claim_family():
    """isinstance on a lazy module runs it, so a family among the registry's
    globals would run before a tracer had wrapped the layers it imports from."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", WALK], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]"]
