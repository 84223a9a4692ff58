"""The package namespace republishes the submodules' public names."""

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
