"""Package surface and lazy submodules: what each CLI command runs."""

import os
import subprocess
import sys

import pytest

import ffspectra
from ffspectra import algebra, closed_forms

LAZY = ("field", "functions", "spectra", "flats", "algebra", "closed_forms")


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
    assert closed_forms.kloosterman is algebra.kloosterman
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
F2 = ("--p", "2", "--n", "4", "--fn", "monomial:d=3")

#: (argv, the ffspectra modules that run): `import ffspectra.cli` alone runs
#: cli, field and functions; only verify and list-theorems run closed_forms.
COMMANDS = [
    ((), BASE),
    (("field", "--p", "3", "--n", "2"), BASE),
    (("eval",) + F2, BASE),
    (("ddt",) + F2, BASE | {"spectra"}),
    (("fbct",) + F2, BASE | {"spectra"}),
    (("spectrum",) + F2, BASE | {"spectra"}),
    (("flats",) + F2, BASE | {"spectra", "flats"}),
    (("sumfree",) + F2 + ("--k", "2"), BASE | {"spectra", "flats"}),
    (("kloosterman", "--n", "4"), BASE | {"algebra"}),
    (("verify", "--theorem", "L2", "--p", "2", "--n", "5"), BASE | set(LAZY)),
    (("list-theorems",), BASE | set(LAZY)),
]


@pytest.mark.parametrize("argv,ran", COMMANDS, ids=[" ".join(a[:1]) or "import" for a, _ in COMMANDS])
def test_each_command_runs_only_the_modules_it_uses(argv, ran):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-c", RAN, *argv], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert set(out.stdout.split()) == ran
