"""The package's public names, listed in full.

Adding, renaming or removing a public name has to edit the lists below, so
every change to the public surface shows up as a test change.
"""

import surprisemax
from surprisemax import cli

PACKAGE_NAMES = [
    "GRID_POINT_CAP",
    "GammaSequence",
    "GridSpec",
    "ObjectiveValue",
    "OracleReport",
    "PolicyTable",
    "SAMPLE_CAP",
    "SIMPLEX_SUM_TOL",
    "SimulationConfig",
    "SimulationResult",
    "SolveResult",
    "SplitMix64",
    "__version__",
    "as_probability_vector",
    "ascent_optimize",
    "bellman_rhs",
    "estimate_expected_surprise",
    "eval_sm1",
    "eval_sm2",
    "eval_sm2_batch",
    "finite_diff_gradient",
    "gamma_sequence",
    "gradient_sm2",
    "grid_search",
    "objective_values",
    "policy_single",
    "realized_surprise",
    "rollout",
    "sample_day",
    "stationarity_residual",
    "tail_masses",
    "telescope_residual",
    "value_v",
]

CLI_NAMES = ["main", "format_float", "format_floats"]


def test_package_names():
    assert sorted(surprisemax.__all__) == PACKAGE_NAMES
    for name in PACKAGE_NAMES:
        assert getattr(surprisemax, name) is not None, name


def test_cli_names():
    assert cli.__all__ == CLI_NAMES
    for name in CLI_NAMES:
        assert callable(getattr(cli, name)), name


def test_star_import_gives_exactly_the_listed_names():
    namespace = {}
    exec("from surprisemax import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PACKAGE_NAMES
