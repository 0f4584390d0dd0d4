"""Shared test fixtures.

Heavy deterministic artifacts (universe, ground-truth KG) are
session-scoped; the Spark sessions come from the root conftest.
"""
import pytest

from repro.kgdata.universe import make_universe


@pytest.fixture(scope="session")
def uni():
    """Small deterministic ground-truth world shared across tests."""
    return make_universe(n_entities=300, seed=7)


@pytest.fixture(scope="session")
def uni_mid():
    """Mid-size world for accuracy-shape tests."""
    return make_universe(n_entities=600, seed=7)


@pytest.fixture(scope="session")
def small_kg(tuned_spark, uni):
    """Fused ground-truth KG (extended triples) over ``uni``."""
    from repro.experiments.common import kg_from_universe

    return kg_from_universe(tuned_spark, uni).localCheckpoint(eager=True)
