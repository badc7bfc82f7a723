"""``python -m repro.cluster``: flag defaults and usage errors."""

import subprocess

import pytest

from repro.cluster import __main__ as cluster_main
from repro.cluster.gateway import GatewayConfig


def test_flag_defaults_are_the_config_defaults(monkeypatch):
    seen = []

    async def fake_run_gateway(config, host, port):
        seen.append(config)

    monkeypatch.setattr(cluster_main, "run_gateway", fake_run_gateway)
    assert cluster_main.main(["--replica", "127.0.0.1:9001"]) == 0
    assert seen == [GatewayConfig(replicas=(("127.0.0.1", 9001),))]


@pytest.mark.parametrize("argv", [
    ["--spawn", "1", "--cache", "", "--fail-after", "0"],
    ["--spawn", "1", "--cache", "", "--audit-rate", "2"],
    ["--spawn", "1", "--cache", "", "--jobs", "0"],
    ["--replica", "127.0.0.1:9001", "--batch-window", "0"],
])
def test_a_config_error_exits_2_before_any_replica_spawns(monkeypatch, argv):
    spawned = []
    monkeypatch.setattr(subprocess, "Popen",
                        lambda *args, **kwargs: spawned.append(args))
    with pytest.raises(SystemExit) as exc:
        cluster_main.main(argv)
    assert exc.value.code == 2
    assert spawned == []
