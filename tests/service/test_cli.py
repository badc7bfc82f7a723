"""``python -m repro.service``: flag defaults, flag wiring and usage errors."""

import dataclasses
import json

import pytest

from repro.service import __main__ as service_main
from repro.service.app import ServiceConfig


def _started(monkeypatch, argv: list[str]) -> tuple[ServiceConfig, str, int]:
    """The config, host and port ``main(argv)`` would serve, captured
    instead of run."""
    seen = []

    async def fake_run_server(config, host, port):
        seen.append((config, host, port))

    monkeypatch.setattr(service_main, "run_server", fake_run_server)
    assert service_main.main(argv) == 0
    return seen[0]


def test_flag_defaults_are_the_config_defaults(monkeypatch):
    assert _started(monkeypatch, [])[0] == ServiceConfig()


def test_every_flag_reaches_its_own_field(monkeypatch, tmp_path):
    """One argv setting every flag to a non-default value: a flag wired
    to the wrong field (or dropped on the way) changes the config."""
    plan = {"schema": "repro.resilience.plan/v1", "seed": 7,
            "rules": [{"site": "worker.evaluate", "kind": "delay",
                       "delay_seconds": 0.5}]}
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    flags = {
        "--host": "127.0.0.2",
        "--port": "9123",
        "--jobs": "3",
        "--cache": str(tmp_path / "cache"),
        "--cache-bytes": "1000",
        "--timeout": "11",
        "--allow-fault-injection": None,
        "--fault-plan": str(plan_path),
        "--breaker-threshold": "7",
        "--breaker-recovery": "13",
        "--saturation-depth": "17",
        "--default-accuracy": "0.5",
        "--max-tier": "1",
        "--max-optimize-budget": "19",
        "--gc-interval": "23",
        "--gc-max-age": "29",
        "--gc-max-bytes": "31",
        "--event-log": str(tmp_path / "events.jsonl"),
        "--audit-rate": "0.25",
        "--audit-budget-seconds": "37",
        "--audit-seed": "41",
        "--delta-budget": "43",
    }
    declared = {option for action in service_main.build_parser()._actions
                for option in action.option_strings
                if option.startswith("--") and option != "--help"}
    assert set(flags) == declared, "the argv must set every flag"
    argv = [part for flag, value in flags.items()
            for part in ((flag,) if value is None else (flag, value))]

    config, host, port = _started(monkeypatch, argv)

    assert (host, port) == ("127.0.0.2", 9123)
    # FaultPlan has no equality: compare its JSON form, the rest as fields
    assert config.fault_plan.to_dict() == plan
    assert dataclasses.replace(config, fault_plan=None) == ServiceConfig(
        jobs=3,
        cache_dir=str(tmp_path / "cache"),
        memory_max_bytes=1000,
        request_timeout=11.0,
        allow_fault_injection=True,
        breaker_failure_threshold=7,
        breaker_recovery_seconds=13.0,
        saturation_queue_depth=17,
        default_accuracy=0.5,
        default_max_tier=1,
        max_optimize_budget_seconds=19.0,
        gc_interval_seconds=23.0,
        gc_max_age_seconds=29.0,
        gc_max_bytes=31,
        event_log_path=str(tmp_path / "events.jsonl"),
        audit_rate=0.25,
        audit_budget_seconds=37.0,
        audit_seed=41,
        delta_budget=43,
    )


@pytest.mark.parametrize("argv", [
    ["--audit-rate", "2"],
    ["--jobs", "0"],
    ["--delta-budget", "-1"],
    ["--default-accuracy", "0"],
    ["--max-optimize-budget", "0"],
    ["--gc-interval", "5"],
])
def test_a_config_error_is_a_usage_error(monkeypatch, argv, capsys):
    monkeypatch.setattr(service_main, "run_server", None)  # never reached
    with pytest.raises(SystemExit) as exc:
        service_main.main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
