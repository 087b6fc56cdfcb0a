"""Which modules a process loads: the lazy package namespaces.

Every package under ``repro`` resolves its public names on first access
(:mod:`repro._lazy`), so a process imports only what its command calls.
Each case runs in a fresh interpreter and checks module sets, never
times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
LITMUS = Path(__file__).parent / "regression_corpus" / "IRIW+fence.sc.litmus"

PACKAGES = [
    "repro",
    *(
        f"repro.{name}"
        for name in (
            "cat cert core fuzz kodkod lang litmus mapping operational proof "
            "ptx rc11 relation sat search serve zoo"
        ).split()
    ),
    # the public facade is a module, lazy the same way: a bare
    # ``import repro.api`` loads no subpackage
    "repro.api",
]

#: packages a plain enumerative run has no business loading
NOT_FOR_RUN = ("kodkod", "sat", "cert", "mapping", "proof", "fuzz", "serve", "rc11")
#: the symbolic engine needs kodkod/sat, but still none of these
NOT_FOR_SYMBOLIC = ("mapping", "proof", "fuzz", "serve")


def _python(script: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    )
    return proc.stdout.splitlines()[-1]


_LOADED = "import json, sys; print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'repro')))"


def _modules_after(code: str, *args: str):
    return set(json.loads(_python(f"{code}\n{_LOADED}", *args)))


_RUN = """\
import contextlib, io, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    status = main(["run", *sys.argv[1:]])
assert status == 0, status
"""


def _packages_loaded_by_run(*options):
    modules = _modules_after(_RUN, str(LITMUS), "--outcomes", *options)
    assert "repro.litmus.runner" in modules  # the run really happened
    return {name.split(".")[1] for name in modules if name.count(".") >= 1}


@pytest.mark.parametrize(
    "options",
    [("--kernel", "bit"), ("--kernel", "compiled"), ("--engine", "rf-check"), ("--model", "tso")],
    ids=lambda options: " ".join(options),
)
def test_enumerative_run_skips_unused_packages(options):
    loaded = _packages_loaded_by_run(*options)
    assert loaded.isdisjoint(NOT_FOR_RUN), sorted(loaded & set(NOT_FOR_RUN))


def test_symbolic_run_skips_unused_packages():
    loaded = _packages_loaded_by_run("--engine", "symbolic")
    assert {"kodkod", "sat"} <= loaded
    assert loaded.isdisjoint(NOT_FOR_SYMBOLIC), sorted(loaded & set(NOT_FOR_SYMBOLIC))


_SURFACE = """\
import importlib, json, sys
package = importlib.import_module(sys.argv[1])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "repro")
names = list(package.__all__)
listed = set(dir(package))
missing = [name for name in names if name not in listed]
unresolved = []
for name in names:
    try:
        getattr(package, name)
    except AttributeError:
        unresolved.append(name)
namespace = {}
exec(f"from {sys.argv[1]} import *", namespace)
bound = sorted(set(namespace) - {"__builtins__"})
print(json.dumps({"loaded": loaded, "names": names, "missing": missing,
                  "unresolved": unresolved, "bound": bound}))
"""


@pytest.mark.parametrize("package", PACKAGES)
def test_package_is_lazy_and_exports_exactly_all(package):
    """Importing a package loads none of its submodules; every ``__all__``
    name then resolves and is listed by ``dir``, and ``from pkg import *``
    binds exactly ``__all__``."""
    surface = json.loads(_python(_SURFACE, package))
    assert set(surface["loaded"]) == {"repro", "repro._lazy", package}
    assert surface["names"], package
    assert len(surface["names"]) == len(set(surface["names"]))
    assert surface["missing"] == []
    assert surface["unresolved"] == []
    assert surface["bound"] == sorted(surface["names"])


_SHADOW = """\
import types
import repro.fuzz.shrink, repro.litmus.explain
from repro.fuzz import shrink
from repro.litmus import explain
from repro.proof import kernel
print(isinstance(shrink, types.FunctionType), isinstance(explain, types.FunctionType),
      isinstance(kernel, types.ModuleType))
"""


def test_submodule_never_shadows_an_export_of_the_same_name():
    """``litmus/explain.py`` defines ``explain``: loading the submodule
    first must not leave the module where the package exports the
    function (``proof.kernel`` is exported as the module on purpose)."""
    assert _python(_SHADOW) == "True True True"


def test_unknown_name_raises_attribute_error():
    import repro.litmus

    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        repro.litmus.nope  # noqa: B018
