import pytest

import nvctrl as nc
from ga_jobs import SEED, fixture_problems, robust_problems


@pytest.fixture(scope="session")
def paper() -> nc.SystemParams:
    return nc.SystemParams()


@pytest.fixture(scope="session")
def h_sub(paper):
    return nc.build_hamiltonian_subspace(paper)


# The searches below are the expensive fixtures; they are shared between the
# optimizer, experiment and acceptance tests.  Their problems are defined in
# ga_jobs.py.

@pytest.fixture(scope="session")
def up_short_result(paper):
    return nc.optimize(fixture_problems(paper)["up_short"], nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def up_free3_result(paper):
    return nc.optimize(fixture_problems(paper)["up_free3"], nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def up_switched_result(paper):
    return nc.optimize(fixture_problems(paper)["up_switched"], nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def u90_result(paper):
    return nc.optimize(fixture_problems(paper)["u90"], nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def table3_rows(paper):
    return nc.reproduce_tables("III", ga=nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def robust_results(paper):
    return {name: nc.optimize(problem, nc.GaConfig(seed=SEED)) for name, problem in robust_problems(paper).items()}
