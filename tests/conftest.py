import pytest

import nvctrl as nc

SEED = 20260809


@pytest.fixture(scope="session")
def paper() -> nc.SystemParams:
    return nc.SystemParams()


@pytest.fixture(scope="session")
def h_sub(paper):
    return nc.build_hamiltonian_subspace(paper)


# The GA runs below are the expensive fixtures; they are shared between the
# optimizer, experiment and acceptance tests.

@pytest.fixture(scope="session")
def up_short_result(paper):
    """Acceptance configuration for the population transfer: 4 pulses with a
    duration penalty selecting the short solutions."""
    problem = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_p", paper, 0.5),
        n_pulses=4,
        rabi_mhz=0.5,
        duration_penalty=0.1,
    )
    return nc.optimize(problem, nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def up_free3_result(paper):
    problem = nc.ControlProblem(
        params=paper, target=nc.build_target("u_p", paper, 0.5), n_pulses=3, rabi_mhz=0.5
    )
    return nc.optimize(problem, nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def up_switched_result(paper):
    problem = nc.ControlProblem(
        params=paper,
        target=nc.build_target("u_p", paper, 0.5),
        n_pulses=3,
        rabi_mhz=0.5,
        mode=nc.MODE_SWITCHED,
    )
    return nc.optimize(problem, nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def u90_result(paper):
    problem = nc.ControlProblem(
        params=paper, target=nc.build_target("u_90", paper, 0.5), n_pulses=2, rabi_mhz=0.5
    )
    return nc.optimize(problem, nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def table3_rows(paper):
    return nc.reproduce_tables("III", ga=nc.GaConfig(seed=SEED))


@pytest.fixture(scope="session")
def robust_results(paper):
    """The four robustness-averaged optimizations over their drive-amplitude
    bands."""
    wide = nc.RobustnessRange(0.47, 0.53, 5)
    narrow = nc.RobustnessRange(0.48, 0.52, 5)
    jobs = {
        "u_c": (3, wide),
        "u_c_dagger": (3, wide),
        "u_p": (3, wide),
        "u_90": (2, narrow),
    }
    results = {}
    for name, (n_pulses, rrange) in jobs.items():
        problem = nc.ControlProblem(
            params=paper,
            target=nc.build_target(name, paper, 0.5),
            n_pulses=n_pulses,
            rabi_mhz=0.5,
            robustness=rrange,
        )
        results[name] = nc.optimize(problem, nc.GaConfig(seed=SEED))
    return results
