"""The outputs recorded in perfbench/expected/ still come out unchanged.

Each benchmark workload runs once and the benchmark's own oracle compares
what it gives with the stored outputs: `verify --format json` reports with
every `duration_ms` zeroed and the seed masked (`finite_bicharacter --n 5
--suite cocycle`, `fun_group --group s3 --suite all`, `nc_torus --p 1 --q 5
--suite all`), the sha256 of both `nc_torus --p 1 --q 5` emissions, and each
fault's [check id, status, witness] list at samples=12 on its own suite.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import child  # noqa: E402  (the benchmark's workload runner and oracle)


@pytest.mark.parametrize("workload, outputs", [
    ("torus_all", 3), ("finite_exhaustive", 2), ("fault_sweep", 10)])
def test_workload_outputs_match_the_recorded_ones(workload, outputs):
    got = child.iteration(workload, 11)
    assert len(got) == outputs
    assert child.problems(got) == []
