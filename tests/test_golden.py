"""Golden digests of short end-to-end runs.

Each case runs one seeded ``simulate_run`` on a bundled scenario cut to 20
steps at 200 particles and pins the sha256 of its ``records_csv`` text.  Any
numerical drift in generation, ray tracing, filtering or metrics changes a
digest; a deliberate change must be explained, not re-pinned silently.
"""

import hashlib
from dataclasses import replace

import pytest

from mvaslam.experiment import records_csv, simulate_run
from mvaslam.scenario import bundled_scenario

STEPS = 20
PARTICLES = 200
SEED = 7

GOLDEN = {
    ("exp1_rect_room", True, 1): "c78066381324f4c7cc096428e7859f8e3d9b57def0ede8f09e3affb69e174e9b",
    ("exp3_olos", True, 1): "2875509c13323f59c217c3eab4bd4378b6f388ad41f13384c5de7832e4629549",
    ("nonrect", True, 1): "72447dc96ff6d669b76323c6fe0e3913ab64ecb8dea964759841b58fb5fddc3e",
    ("nonrect", False, 1): "1743fc2d3641192e64dfed7a39a46ca1e73d19acc88257353c9069265cdd595a",
    ("exp3_olos", True, 2): "c7ab6b8936154325074624a8de6b90e9ac40bed7dac2f379ea0fd23664278d4b",
}


def golden_config(name, visibility, setup):
    config = bundled_scenario(name)
    double = setup == 1
    params = replace(config.params, n_particles=PARTICLES, visibility_check=visibility,
                     use_double_bounce=double)
    return replace(config, waypoints=config.waypoints[:STEPS + 1], params=params,
                   double_bounce=double)


def golden_digest(name, visibility, setup):
    config = golden_config(name, visibility, setup)
    record = simulate_run(config, 0, SEED)
    text = records_csv([record], len(config.pas))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,visibility,setup", list(GOLDEN),
                         ids=[f"{n}-vis{int(v)}-setup{s}" for n, v, s in GOLDEN])
def test_golden_digest(name, visibility, setup):
    assert golden_digest(name, visibility, setup) == GOLDEN[(name, visibility, setup)]
