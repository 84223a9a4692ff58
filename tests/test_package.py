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


def test_noise_streams_are_built_only_by_the_level_plan():
    # Every level run draws from the stream of its LevelPair plan, so the
    # keying (master seed, level, path) has one home.
    calls = []
    for path in sorted(Path(mlmc_sdde.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for scope in ast.walk(tree):
            if not isinstance(scope, ast.ClassDef):
                continue
            for fn in scope.body:
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        node.scope = f"{scope.name}.{fn.name}"
        calls += [(path.name, getattr(node, "scope", None))
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "NoiseStream" in (getattr(node.func, "id", None),
                                        getattr(node.func, "attr", None))]
    assert calls == [("coupling.py", "LevelPair.noise_stream")]
