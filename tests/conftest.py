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
    """Empties every memo of the package (the constructors of maps and lifts
    and the step blocks) on entry, and returns the function that does so."""
    from geodisc import hamiltonian, lifts, maps

    memos = (
        maps.midpoint_map,
        maps.theta_map,
        maps.sphere_initial_point_map,
        maps.sphere_geodesic_midpoint_map,
        maps.se2_exp_map,
        lifts.higher_order_lift,
        lifts.cotangent_lift,
        lifts.second_order_phase_map,
        hamiltonian._blocks,
    )

    def clear():
        for memo in memos:
            memo.cache_clear()

    clear()
    return clear
