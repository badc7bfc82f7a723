"""``python -m repro.service``: flag defaults and usage errors."""

import pytest

from repro.service import __main__ as service_main
from repro.service.app import ServiceConfig


def _started_config(monkeypatch, argv: list[str]) -> ServiceConfig:
    """The config ``main(argv)`` would serve, captured instead of run."""
    seen = []

    async def fake_run_server(config, host, port):
        seen.append(config)

    monkeypatch.setattr(service_main, "run_server", fake_run_server)
    assert service_main.main(argv) == 0
    return seen[0]


def test_flag_defaults_are_the_config_defaults(monkeypatch):
    assert _started_config(monkeypatch, []) == ServiceConfig()


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
