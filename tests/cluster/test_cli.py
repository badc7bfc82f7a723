"""``python -m repro.cluster``: flag defaults, flag wiring and usage errors."""

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


def test_every_flag_reaches_its_own_field(monkeypatch, tmp_path):
    """One argv setting every flag to a non-default value: the gateway
    flags land in their own ``GatewayConfig`` fields and the replica
    flags in the spawned replica's command line."""
    flags = {
        "--host": "127.0.0.2",
        "--port": "9123",
        "--replica": "127.0.0.3:9001",
        "--spawn": "1",
        "--jobs": "3",
        "--cache": str(tmp_path / "cache"),
        "--probe-interval": "0.5",
        "--fail-after": "4",
        "--batch-window": "9",
        "--event-log": str(tmp_path / "gateway.jsonl"),
        "--audit-rate": "0.25",
        "--audit-budget-seconds": "37",
    }
    declared = {option for action in cluster_main.build_parser()._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"}
    assert set(flags) == declared, "the argv must set every flag"
    argv = [part for flag, value in flags.items() for part in (flag, value)]

    launched, stopped, served = [], [], []

    def fake_launch_replica(replica_flags):
        launched.append(replica_flags)
        return "process", "127.0.0.4", 9002

    async def fake_run_gateway(config, host, port):
        served.append((config, host, port))

    monkeypatch.setattr(cluster_main, "launch_replica", fake_launch_replica)
    monkeypatch.setattr(cluster_main, "stop_replica", stopped.append)
    monkeypatch.setattr(cluster_main, "run_gateway", fake_run_gateway)
    assert cluster_main.main(argv) == 0

    assert served == [(GatewayConfig(
        replicas=(("127.0.0.3", 9001), ("127.0.0.4", 9002)),
        probe_interval_seconds=0.5,
        fail_after=4,
        batch_window=9,
        event_log_path=str(tmp_path / "gateway.jsonl"),
    ), "127.0.0.2", 9123)]
    assert launched == [[
        "--jobs", "3",
        "--cache", str(tmp_path / "cache" / "replica-0"),
        "--event-log", str(tmp_path / "replica-0-events.jsonl"),
        "--audit-rate", "0.25",
        "--audit-budget-seconds", "37.0",
    ]]
    assert stopped == ["process"]


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
