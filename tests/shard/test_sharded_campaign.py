"""The fuzz campaign driver on the sharded runtime (``--shards``)."""

from repro.catalog import GeneratorProfile
from repro.fuzz.driver import run_campaign

SMOKE = GeneratorProfile.smoke()


class TestShardedCampaign:
    def test_two_shard_smoke_campaign_is_clean(self):
        campaign = run_campaign(
            seeds=[0, 1], profile=SMOKE, shards=2
        )
        assert campaign.ok
        assert not campaign.violations
        header, rows = campaign.table()
        assert header[1] == "shards"
        assert all(row[1] == 2 for row in rows)

    def test_one_shard_report_is_byte_identical_to_single_core(self):
        sharded = run_campaign(seeds=[0, 1], profile=SMOKE, shards=1)
        plain = run_campaign(seeds=[0, 1], profile=SMOKE)
        assert sharded.table() == plain.table()
        assert sharded.ok == plain.ok

    def test_jobs_compose_with_shards(self):
        serial = run_campaign(seeds=[0, 1], profile=SMOKE, shards=2)
        parallel = run_campaign(seeds=[0, 1], profile=SMOKE, shards=2, jobs=2)
        assert serial.table() == parallel.table()
