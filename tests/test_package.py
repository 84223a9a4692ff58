"""The package namespace republishes the submodules' public names, and
the package builds its noise streams in one place."""

import ast
from pathlib import Path

import mlmc_sdde
from mlmc_sdde import analysis, coupling, mlmc, model, rng, scheme


def test_package_all_is_the_union_of_the_submodule_lists():
    modules = (model, rng, scheme, coupling, mlmc, analysis)
    names = [name for module in modules for name in module.__all__]
    assert len(set(names)) == len(names)
    assert sorted(mlmc_sdde.__all__) == sorted(names + ["__version__"])
    for module in modules:
        for name in module.__all__:
            assert getattr(mlmc_sdde, name) is getattr(module, name)


def _callers(name: str) -> list[tuple[str, str | None]]:
    """``(file, scope)`` of every call of ``name`` in the package source,
    the scope being the enclosing module-level function or
    ``Class.method``, in file and then source order."""
    calls = []
    for path in sorted(Path(mlmc_sdde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                scopes = [(top.name, top)]
            elif isinstance(top, ast.ClassDef):
                scopes = [(f"{top.name}.{fn.name}", fn) for fn in top.body
                          if isinstance(fn, ast.FunctionDef)]
            else:
                continue
            for scope, fn in scopes:
                for node in ast.walk(fn):
                    node.scope = scope
        calls += [(path.name, getattr(node, "scope", None))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and name in (getattr(node.func, "id", None),
                               getattr(node.func, "attr", None))]
    return calls


def test_noise_streams_are_built_only_by_the_level_plan():
    # Every level run draws from the stream of its LevelPair plan, so the
    # keying (master seed, level, path) has one home.
    assert _callers("NoiseStream") == [("coupling.py", "LevelPair.noise_stream")]


def test_one_driver_steps_every_level_run_on_one_reader():
    # Steppers are primed and sent to by one driver, normals are drawn by
    # one block reader, which the driver and the strong sweep's reference
    # alone read, and a plan's members are tamed in one place.
    assert _callers("_steps") == [("scheme.py", "_lockstep")]
    assert _callers("gaussian_increment") == [
        ("scheme.py", "_stream_increments")]
    assert _callers("_stream_increments") == [
        ("analysis.py", "strong_error_rate"), ("scheme.py", "_lockstep")]
    assert [scope for file, scope in _callers("taming_for_level")
            if file == "coupling.py"] == ["LevelPair.members"]
