"""The documented library surface stays importable."""

import ttmep


def test_all_names_resolve():
    for name in ttmep.__all__:
        assert getattr(ttmep, name) is not None, name


def test_readme_quick_start_imports():
    from ttmep import SolverConfig, generate_random_mep, oracle_eigenvalues, solve
    from ttmep.delta_builder import shift_generated

    for obj in (SolverConfig, generate_random_mep, oracle_eigenvalues, solve, shift_generated):
        assert callable(obj)
