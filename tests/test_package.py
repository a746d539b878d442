import importlib

import pytest

import wavelab

PUBLIC = {
    "constructions": [
        "ExtractionFailure", "ExtractionTrace", "VerificationError", "extract_wave_main",
        "extract_wave_strong", "ezconst_coloring", "product_coloring", "product_decompose",
        "profile_pick", "verify_coloring_wave_free",
    ],
    "perm": [
        "Classification", "Permutation", "classify", "direct_difference", "layers",
        "normalize", "peaks", "remove_values", "reverse",
    ],
    "solvers": [
        "Coloring", "ColoringResult", "DensityResult", "exact_P", "exact_g",
        "recursive_upper_bound_g",
    ],
    "store": ["Record", "Store", "StoreConflictError", "StoreError"],
    "waves": [
        "IntSet", "WaveWitness", "differences", "find_wave", "is_pi_wave",
        "is_weak_pi_wave", "prefix_feasible",
    ],
}


def test_package_exports_each_module_api():
    names = sorted(n for api in PUBLIC.values() for n in api)
    assert len(names) == 36
    assert wavelab.__all__ == names + ["__version__"]
    for module_name, api in PUBLIC.items():
        module = importlib.import_module(f"wavelab.{module_name}")
        assert sorted(module.__all__) == sorted(api)
        for name in api:
            assert getattr(wavelab, name) is getattr(module, name)


@pytest.mark.parametrize("module_name,name", [
    ("perm", "CLASSIFY_MAX_LEN"),
    ("waves", "Mode"),
    ("solvers", "DEFAULT_NODE_BUDGET"),
    ("solvers", "SINGLE_REMOVAL_FACTOR"),
    ("solvers", "PAIR_REMOVAL_FACTOR"),
    ("store", "DEFAULT_STORE_PATH"),
    ("store", "STORE_PATH_ENV"),
])
def test_module_only_names_stay_importable(module_name, name):
    module = importlib.import_module(f"wavelab.{module_name}")
    assert hasattr(module, name)
    assert name not in module.__all__
    assert name not in wavelab.__all__
