"""Shared pytest setup: one fixed hypothesis profile, so runs repeat exactly, and
the pipeline runs of the seed-7 workloads (`workload_record`)."""

import pytest
from hypothesis import settings

settings.register_profile("bladekit", derandomize=True, deadline=None,
                          max_examples=40, database=None)
settings.load_profile("bladekit")


@pytest.fixture(scope="session")
def seed7_reports(tmp_path_factory):
    """``{name: RunReport}`` of the tiny seed-7 ``deg1_triple``, ``deg2_lift`` and chain probe."""
    import workload_record

    paths = workload_record.build_configs(str(tmp_path_factory.mktemp("seed7")))
    return {name: workload_record.run(path) for name, path in paths.items()}
