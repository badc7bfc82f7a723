"""The experiments CLI (tiny scale, no caching)."""

import pytest

from repro.experiments.runner import EXPERIMENTS, main


def test_runner_figure_drivers(capsys, tmp_path):
    code = main(
        [
            "--exp", "figure4",
            "--collection", "tiny",
            "--limit", "3",
            "--cache", str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Figure 4" in out
    assert "per-class summary" in out


def test_runner_table2_sequential(capsys, tmp_path):
    code = main(
        [
            "--exp", "table2",
            "--collection", "tiny",
            "--limit", "3",
            "--cache", str(tmp_path / "cache"),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_runner_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["--exp", "bogus"])


def test_runner_rejects_timeout_without_a_pool(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--exp", "figure2", "--collection", "tiny", "--limit", "1",
              "--cache", "", "--timeout", "5"])
    assert exit_info.value.code == 2
    assert "--timeout needs --jobs >= 2" in capsys.readouterr().err


def test_runner_cache_reuse(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    main(["--exp", "figure5", "--collection", "tiny", "--limit", "2", "--cache", cache])
    capsys.readouterr()
    # second invocation must reuse the cache (no re-simulation crash)
    code = main(
        ["--exp", "figure5", "--collection", "tiny", "--limit", "2", "--cache", cache]
    )
    assert code == 0
    assert "correlation" in capsys.readouterr().out


@pytest.mark.parametrize(
    "exp, titles",
    [
        ("section44", ["Section 4.4", "top-bandwidth set"]),
        ("section43", ["Ablation: prefetch distance"]),
        ("section42", ["Ablation: RCM via the optimizer objective",
                       "Ablation: RCM + load balancing"]),
    ],
)
def test_runner_paper_sections(capsys, exp, titles):
    assert exp in EXPERIMENTS  # so --exp all regenerates it too
    code = main(["--exp", exp, "--collection", "tiny", "--limit", "3", "--cache", ""])
    assert code == 0
    out = capsys.readouterr().out
    for title in titles:
        assert title in out
