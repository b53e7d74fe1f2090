"""The searches the tier-1 tests run, defined once.

conftest.py builds its shared search fixtures from these problems, and
tools/search_sweep.py runs all 21 of them to size the search budget: the 13
benchmark table rows, the 4 robust jobs and the 4 fixture jobs.
"""

import nvctrl as nc
from nvctrl.optimizer import table_runs

SEED = 20260809


def robust_problems(params: nc.SystemParams) -> dict[str, nc.ControlProblem]:
    """The four robustness-averaged optimizations over their drive-amplitude
    bands."""
    wide = nc.RobustnessRange(0.47, 0.53, 5)
    narrow = nc.RobustnessRange(0.48, 0.52, 5)
    bands = {"u_c": (3, wide), "u_c_dagger": (3, wide), "u_p": (3, wide), "u_90": (2, narrow)}
    return {
        name: nc.ControlProblem(
            params=params,
            target=nc.build_target(name, params, 0.5),
            n_pulses=n_pulses,
            rabi_mhz=0.5,
            robustness=rrange,
        )
        for name, (n_pulses, rrange) in bands.items()
    }


def fixture_problems(params: nc.SystemParams) -> dict[str, nc.ControlProblem]:
    """The shared nominal search fixtures, by fixture name without `_result`.
    up_short is the acceptance configuration for the population transfer: 4
    pulses with a duration penalty selecting the short solutions."""
    u_p = nc.build_target("u_p", params, 0.5)
    return {
        "up_short": nc.ControlProblem(params, u_p, n_pulses=4, rabi_mhz=0.5, duration_penalty=0.1),
        "up_free3": nc.ControlProblem(params, u_p, n_pulses=3, rabi_mhz=0.5),
        "up_switched": nc.ControlProblem(params, u_p, n_pulses=3, rabi_mhz=0.5, mode=nc.MODE_SWITCHED),
        "u90": nc.ControlProblem(params, nc.build_target("u_90", params, 0.5), n_pulses=2, rabi_mhz=0.5),
    }


def jobs(ga: nc.GaConfig) -> dict[str, tuple[nc.ControlProblem, nc.GaConfig]]:
    """Every tier-1 search with the search config it runs under for the budget
    and seed of `ga` (table row i runs with seed ga.seed + i), by job id in a
    fixed order."""
    params = nc.SystemParams()
    out = {}
    for which in ("I", "II", "III"):
        for i, (problem, row_ga) in enumerate(table_runs(which, params, ga)):
            name = f"{which}.{i}-{problem.target.name}-{problem.rabi_mhz:g}MHz-n{problem.n_pulses}"
            out[name] = (problem, row_ga)
    out.update((f"robust-{name}", (p, ga)) for name, p in robust_problems(params).items())
    out.update((name, (p, ga)) for name, p in fixture_problems(params).items())
    return out
