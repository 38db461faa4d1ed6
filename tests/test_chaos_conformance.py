"""The blocking chaos-conformance gate.

Runs the CI subset of the chaos matrix — one scenario per fault family,
three seeds each — as ordinary tests, so a control-plane regression
fails `pytest` with the standalone reproducer command in the message.
The full 27-scenario matrix runs here too: 81 seeded runs take a few
seconds, so every tier-1 run checks every cell.
"""

import pytest

from repro.analysis.chaos import (
    CI_SCENARIOS,
    DEFAULT_SEEDS,
    FAMILY_CONFIGS,
    WORKLOADS,
    all_scenarios,
    run_scenario,
)


def _describe(result):
    lines = ["chaos violation in %s seed %d:"
             % (result["scenario"], result["seed"])]
    lines.extend("  - %s" % v for v in result["violations"])
    lines.append("  REPRO: PYTHONPATH=src python -m repro.analysis.chaos "
                 "--scenario %s --seed %d"
                 % (result["scenario"], result["seed"]))
    return "\n".join(lines)


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
@pytest.mark.parametrize("scenario", CI_SCENARIOS)
def test_ci_subset_holds_invariants(scenario, seed):
    result = run_scenario(scenario, seed)
    assert result["ok"], _describe(result)


def test_matrix_is_at_least_24_by_3():
    """The acceptance floor: >= 24 scenario combinations x >= 3 seeds."""
    scenarios = all_scenarios()
    assert len(scenarios) >= 24
    assert len(set(scenarios)) == len(scenarios)
    assert len(DEFAULT_SEEDS) >= 3
    # Every cell is a real {placement} x {workload} x {family} combo.
    for scenario in scenarios:
        config, workload, family = scenario.split("/")
        assert workload in WORKLOADS
        assert config in FAMILY_CONFIGS[family]


def test_ci_subset_covers_control_plane_families():
    families = {scenario.split("/")[2] for scenario in CI_SCENARIOS}
    # The subset must exercise both control-plane families, including
    # the crash/restart outage that rides in "stress".
    assert {"rpc", "stress"} <= families


@pytest.mark.parametrize("seed", DEFAULT_SEEDS)
@pytest.mark.parametrize("scenario", all_scenarios())
def test_full_matrix_holds_invariants(scenario, seed):
    result = run_scenario(scenario, seed)
    assert result["ok"], _describe(result)
