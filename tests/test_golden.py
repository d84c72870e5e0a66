"""Golden digests of short end-to-end runs.

Each case runs one seeded ``simulate_run`` on a bundled scenario cut to 20
steps at 200 particles and pins the sha256 of its ``records_csv`` text.  Any
numerical drift in generation, ray tracing, filtering or metrics changes a
digest; a deliberate change must be explained, not re-pinned silently.  The
last case caps the map at 8 features, so the cap binds in 19 of its 40
anchor blocks.

The same runs also show that the filter works: every run stays within the
convergence radius, and with the visibility check on the final confirmed
map is non-empty with an MVA MOSPA below the OSPA cutoff.  ``nonrect``
without the visibility check confirms no feature within 20 steps, so its
map is not checked.
"""

import hashlib
from dataclasses import replace

import pytest

from mvaslam.experiment import OSPA_PARAMS, records_csv, simulate_run
from mvaslam.scenario import bundled_scenario

STEPS = 20
PARTICLES = 200
SEED = 7

# (scenario, visibility check, setup, max_features or None for the scenario's)
GOLDEN = {
    ("exp1_rect_room", True, 1, None): "4d31aae1ab8e5b270f1ffbf41e347c5b8e557a34d5e6d9b9dffd06f1c3704c68",
    ("exp3_olos", True, 1, None): "7af9b700a3af420edd82cede3a6317df0b9dafcf91addc6b617f4138aa447c79",
    ("nonrect", True, 1, None): "ceea8065383518459afd056f1caf44ee075d03e24561f70d5a0b60ddef121662",
    ("nonrect", False, 1, None): "1743fc2d3641192e64dfed7a39a46ca1e73d19acc88257353c9069265cdd595a",
    ("exp3_olos", True, 2, None): "c7ab6b8936154325074624a8de6b90e9ac40bed7dac2f379ea0fd23664278d4b",
    ("exp1_rect_room", True, 1, 8): "3193cf9d55a58628c5baf713315bb7263827e72fedf127d9e96609e328d42c0b",
}


def golden_config(name, visibility, setup, max_features=None):
    config = bundled_scenario(name)
    double = setup == 1
    params = replace(config.params, n_particles=PARTICLES, visibility_check=visibility,
                     use_double_bounce=double)
    if max_features is not None:
        params = replace(params, max_features=max_features)
    return replace(config, waypoints=config.waypoints[:STEPS + 1], params=params,
                   double_bounce=double)


def golden_run(name, visibility, setup, max_features=None):
    """The run record of one case and the digest of its ``records_csv`` text."""
    config = golden_config(name, visibility, setup, max_features)
    record = simulate_run(config, 0, SEED)
    text = records_csv([record])
    return record, hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name,visibility,setup,max_features", list(GOLDEN),
                         ids=[f"{n}-vis{int(v)}-setup{s}" + (f"-cap{c}" if c else "")
                              for n, v, s, c in GOLDEN])
def test_golden_digest(name, visibility, setup, max_features):
    record, digest = golden_run(name, visibility, setup, max_features)
    assert digest == GOLDEN[(name, visibility, setup, max_features)]
    assert record.converged
    if visibility:
        assert record.s_hat[-1] > 0
        assert record.mospa_mva[-1] < OSPA_PARAMS.cutoff
