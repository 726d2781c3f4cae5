"""Config identity and the self-healing result cache."""

import json
import os

import pytest

from repro.serve import JobConfig, ResultCache, config_key


class TestJobConfig:
    def test_key_is_stable_and_order_free(self):
        a = JobConfig(scenario="adapt", n_nodes=300, steps=6, seed=1)
        b = JobConfig(seed=1, steps=6, n_nodes=300, scenario="adapt")
        assert config_key(a) == config_key(b)

    def test_simulated_fields_change_the_key(self):
        base = JobConfig(scenario="adapt", n_nodes=300, steps=6)
        for variant in (
            JobConfig(scenario="sweep", n_nodes=300, steps=6),
            JobConfig(scenario="adapt", n_nodes=301, steps=6),
            JobConfig(scenario="adapt", n_nodes=300, steps=7),
            JobConfig(scenario="adapt", n_nodes=300, steps=6, seed=9),
            JobConfig(scenario="adapt", n_nodes=300, steps=6, n_procs=16),
            JobConfig(scenario="adapt", n_nodes=300, steps=6, partitioner="RSB"),
            JobConfig(
                scenario="adapt", n_nodes=300, steps=6,
                faults=(("corrupt_gather", 0),),
            ),
        ):
            assert config_key(variant) != config_key(base)

    def test_host_only_fields_do_not_change_the_key(self):
        base = JobConfig(scenario="adapt", n_nodes=300, steps=6)
        scripted = JobConfig(
            scenario="adapt", n_nodes=300, steps=6,
            crash_at_step=2, crash_attempts=3,
            corrupt_checkpoint_on_crash=True, step_delay_s=0.5,
        )
        assert config_key(scripted) == config_key(base)

    def test_round_trips_through_plain_dicts(self):
        cfg = JobConfig(
            scenario="rebalance", n_nodes=256, steps=5,
            faults=(("corrupt_remap", 3),),
        )
        d = json.loads(json.dumps(cfg.simulated_fields()))
        back = JobConfig.from_dict(d)
        assert config_key(back) == config_key(cfg)

    def test_validation(self):
        with pytest.raises(ValueError, match="scenario"):
            JobConfig(scenario="warp")
        with pytest.raises(ValueError, match="steps"):
            JobConfig(steps=0)
        with pytest.raises(ValueError, match="workload"):
            JobConfig(workload="navier")
        with pytest.raises(ValueError, match="unknown JobConfig fields"):
            JobConfig.from_dict({"scenario": "adapt", "bogus": 1})


PAYLOAD = {"simulated_total": 1.5, "mode_counts": {"full": 1}, "steps": 3}


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("k" * 8) is None
        cache.put("k" * 8, PAYLOAD)
        assert cache.get("k" * 8) == PAYLOAD
        assert cache.stats() == {
            "hits": 1, "misses": 1, "corrupt": 0, "entries": 1
        }

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: open(p, "r+b").truncate(20),
            lambda p: open(p, "wb").write(b"\x00" * 64),
            lambda p: open(p, "w").write('{"format": "something-else"}'),
            lambda p: open(p, "w").write(
                '{"format": "repro-serve-result", "version": 1, '
                '"crc": 1, "payload": {"simulated_total": 2.0}}'
            ),
        ],
        ids=["truncated", "binary-garbage", "wrong-format", "bad-crc"],
    )
    def test_damage_is_quarantined_and_healed(self, tmp_path, damage):
        cache = ResultCache(str(tmp_path))
        cache.put("deadbeef", PAYLOAD)
        damage(cache.path("deadbeef"))
        assert cache.get("deadbeef") is None  # never serves damaged bytes
        assert cache.corrupt == 1
        assert os.path.exists(cache.path("deadbeef") + ".quarantine")
        assert cache.quarantined[0]["key"] == "deadbeef"
        # recompute-and-reput heals the entry
        cache.put("deadbeef", PAYLOAD)
        assert cache.get("deadbeef") == PAYLOAD

    def test_no_tmp_litter(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("abc123", PAYLOAD)
        assert [n for n in os.listdir(tmp_path) if ".tmp" in n] == []
