import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=30, deadline=None)
settings.load_profile("ci")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def clear_memos():
    """Empties every memo of the package (:func:`package_memos`) on entry,
    and returns the function that does so."""
    memos = package_memos()

    def clear():
        for memo in memos:
            memo.cache_clear()

    clear()
    return clear


def package_memos():
    """Every memo of the package: the constructors of maps and lifts, the
    second-lift suite's non-affine copies of maps, and the step blocks."""
    from geodisc import checks, hamiltonian, lifts, maps

    return (
        maps.midpoint_map,
        maps.theta_map,
        maps.sphere_initial_point_map,
        maps.sphere_geodesic_midpoint_map,
        maps.se2_exp_map,
        lifts.higher_order_lift,
        lifts.cotangent_lift,
        lifts.second_order_phase_map,
        checks._without_affine,
        hamiltonian._blocks,
    )
