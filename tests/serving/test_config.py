"""ServerConfig: every serving setting's default and validation, once."""

import json
from fractions import Fraction

import pytest

from repro.exceptions import ValidationError
from repro.release.artifacts import ArtifactSpec, ArtifactStore
from repro.serving import MechanismServer, ServerConfig


class TestServerConfig:
    def test_json_round_trip_is_exact(self, tmp_path):
        config = ServerConfig(
            floor="1/256", ledger_dir=tmp_path, trace_dir=tmp_path / "t",
            wal_failure_policy="memory-mode-with-alarm", seed=3,
        )
        assert config.floor == Fraction(1, 256)
        assert config.ledger_dir == str(tmp_path)
        assert config.wal_failure_policy == "memory"
        shipped = json.loads(json.dumps(config.to_dict()))
        assert ServerConfig.of(shipped) == config

    @pytest.mark.parametrize("spelling, policy", [
        ("reject-new-charges", "reject"), ("reject", "reject"),
        ("memory-mode-with-alarm", "memory"), ("memory", "memory"),
    ])
    def test_wal_policy_spellings_normalise(self, spelling, policy):
        assert ServerConfig(wal_failure_policy=spelling).wal_failure_policy \
            == policy

    @pytest.mark.parametrize("settings, match", [
        ({"floor": 1}, "absolute privacy"),
        ({"floor": "half"}, "floor"),
        ({"ledger_fsync": "sometimes"}, "ledger_fsync"),
        ({"wal_failure_policy": "panic"}, "wal_failure_policy"),
        ({"degraded": "404"}, "degraded"),
        ({"telemetry": None}, "telemetry"),
        ({"batch_max": "many"}, "batch_max"),
        ({"trace_dri": "d"}, "trace_dri"),
    ])
    def test_refuses_bad_settings(self, settings, match):
        with pytest.raises(ValidationError, match=match):
            ServerConfig.of(settings)

    def test_server_keywords_go_through_the_config(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        store.get_or_compile(ArtifactSpec("geometric", 4, Fraction(1, 2)))
        server = MechanismServer(store, floor="1/8", audit_rate=0.0)
        assert server.config == ServerConfig(floor=Fraction(1, 8),
                                             audit_rate=0.0)
        assert server.ledgers.floor == Fraction(1, 8)
        with pytest.raises(ValidationError, match="not both: floor"):
            MechanismServer(store, config=server.config, floor="1/4")
        with pytest.raises(ValidationError, match="verify"):
            MechanismServer(store, verify=False)
