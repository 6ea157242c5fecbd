import pytest
from hypothesis import Phase, settings

from msam import harness

# Every property test draws the same examples on every run, keeps no example
# database and has no deadline, so a slow, shared machine cannot flake it.
settings.register_profile("msam", derandomize=True, database=None, deadline=None)
settings.load_profile("msam")
# `--hypothesis-profile msam-explicit` runs only the explicit @example cases
settings.register_profile("msam-explicit", settings.get_profile("msam"), phases=[Phase.explicit])


@pytest.fixture(scope="session")
def preset_runs():
    """Memoized preset training runs, shared by the acceptance tests.

    Several criteria look at the same (preset, optimizer, seed) runs from
    different angles; caching keeps the suite at one training run per triple.
    """
    cache = {}

    def get(name: str, kind: str, seed: int):
        key = (name, kind, seed)
        if key not in cache:
            raw = harness.preset(name, seed=seed, optimizer={"kind": kind})
            cache[key] = harness.run(harness.resolve_config(raw))
        return cache[key]

    return get
