import os
import subprocess
import sys
import types

import pytest

import nhladder


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from nhladder import *", namespace)
    for name in nhladder.__all__:
        assert namespace[name] is getattr(nhladder, name)


def test_every_public_import_is_exported():
    public = {name for name, value in vars(nhladder).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(nhladder.__all__)


def _loaded_modules(*args):
    """Modules a fresh interpreter run with these arguments imports, read
    from its -X importtime report."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nhladder.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-X", "importtime", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


def test_a_solve_loads_no_driver_module():
    loaded = _loaded_modules(
        "-c", "import nhladder as nh; "
        "p = nh.ModelParams(cells=4, particles=2, jp=0.01, mu=0.2, u=4.0); "
        "nh.eigendecompose(nh.build_hamiltonian(p, nh.sector_basis(p)))")
    assert "nhladder.eig" in loaded
    assert not loaded & {"nhladder.sweep", "nhladder.perturb",
                         "nhladder.observables", "concurrent.futures"}


def test_spectrum_command_loads_no_sweep_driver(tmp_path):
    loaded = _loaded_modules("-m", "nhladder", "spectrum", "--cells", "4",
                             "--particles", "2", "--jp", "0.01", "--mu", "0.2",
                             "--u", "4", "--out", str(tmp_path / "s"))
    assert "nhladder.observables" in loaded
    assert not loaded & {"nhladder.sweep", "nhladder.perturb",
                         "concurrent.futures", "numpy.ma"}


def test_every_command_imports_numpy_only(tmp_path):
    # the undeclared packages installed next to it stay unloaded
    pair = ["--cells", "3", "--particles", "2", "--u", "4", "--jp", "0.01",
            "--mu", "0.2"]
    runs = [["spectrum", *pair], ["density", *pair], ["ncor", *pair],
            ["entropy", *pair],
            ["sweep", *pair, "--axis", "jp:0:0.05:2",
             "--observables", "max_im_per_cluster,entropies,threshold",
             "--bracket", "0:1", "--resolution", "0.05"],
            ["threshold", "--cells", "4", "--particles", "1", "--mu", "0.2",
             "--bracket", "0:1", "--resolution", "0.05"],
            ["effective", "--cells", "4", "--particles", "2", "--u", "8",
             "--jp", "0.01"],
            ["eonsite", "--cells", "3", "--particles", "2", "--u", "4",
             "--mu-range", "0:4"]]
    runs = [[*argv, "--out", str(tmp_path / argv[0])] for argv in runs]
    loaded = _loaded_modules(
        "-c", "import sys; from nhladder.cli import main; "
        f"sys.exit(max(main(argv) for argv in {runs!r}))")
    assert {"nhladder.sweep", "nhladder.perturb"} <= loaded
    assert not {name.split(".")[0] for name in loaded} & {
        "scipy", "sympy", "hypothesis", "pytest_benchmark"}


def test_dir_lists_every_export_and_submodule():
    modules = {"eig", "fock", "lapack", "model", "observables", "perturb",
               "sweep"}
    dunders = {"__all__", "__builtins__", "__cached__", "__doc__", "__file__",
               "__loader__", "__name__", "__package__", "__path__", "__spec__"}
    # cli is bound here once any test has imported it
    expected = set(nhladder.__all__) | modules | dunders
    assert set(dir(nhladder)) - {"cli"} == expected
    assert dir(nhladder) == sorted(dir(nhladder))
    assert nhladder.sweep.run_sweep is nhladder.run_sweep
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        nhladder.cli_main


def test_readme_library_example_runs(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
    with open(readme) as handle:
        text = handle.read()
    section = text.split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out
