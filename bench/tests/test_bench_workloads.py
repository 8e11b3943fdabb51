"""The benchmark's own inputs: seeded, file-format clean, and paid up where meant to be.

Run with ``python3 -m pytest bench/tests`` from the root of the checkout.
"""

import pytest

from autopark import parse_scenario, render_scenario, run_scenario

import workloads

DEFAULT_SEED = 0


@pytest.fixture(scope="module")
def built():
    """Each workload at two seeds, built twice."""
    return {
        (name, seed, copy): workloads.build(name, seed)
        for name in workloads.WORKLOADS
        for seed in (DEFAULT_SEED, 1)
        for copy in (0, 1)
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(built, name):
    assert built[name, DEFAULT_SEED, 0] == built[name, DEFAULT_SEED, 1]
    assert built[name, 1, 0] == built[name, 1, 1]
    assert built[name, DEFAULT_SEED, 0] != built[name, 1, 0]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_scenarios_survive_render_and_parse(built, name):
    for scenario in built[name, DEFAULT_SEED, 0]:
        assert parse_scenario(render_scenario(scenario)) == scenario


def test_corpus_windows_are_consecutive_and_disjoint():
    assert workloads.corpus_seeds(0) == range(0, workloads.CORPUS_SEEDS)
    assert workloads.corpus_seeds(1)[0] == workloads.corpus_seeds(0)[-1] + 1


@pytest.mark.parametrize("name", ["churn_day", "big_garage"])
def test_paid_up_workloads_have_no_wrong_phase_payment(built, name):
    (scenario,) = built[name, DEFAULT_SEED, 0]
    result = run_scenario(scenario, check=False)
    assert not [line for line in result.trace if "reject=WrongPhase" in line]
    # Every accepted car parks, comes back and leaves: nothing is stranded.
    statuses = {row.status for row in result.report.rows}
    assert statuses <= {"Closed", "rejected:TooLong"}
