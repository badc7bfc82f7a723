"""Experiment infrastructure: bundles, caching, drivers (tiny scale)."""

import json

import numpy as np
import pytest

from repro.experiments import (
    ExperimentSetup,
    accuracy_rows,
    correlation,
    figure2_series,
    figure3_series,
    figure4_points,
    figure5_points,
    headline_numbers,
    l1_accuracy,
    measure_matrix,
    method_overhead,
    render_accuracy_table,
    render_figure2,
    render_figure3,
    render_figure4,
    render_figure5,
    render_table1,
    run_collection,
    run_table1,
)
from repro.experiments.common import MatrixRecord
from repro.matrices import banded, collection
from repro.matrices.table1 import TABLE1

SETUP = ExperimentSetup(
    num_threads=8,
    l2_way_options=(0, 2, 5),
    l1_way_options=(0, 1),
)


@pytest.fixture(scope="module")
def records():
    specs = collection("tiny")[:4]
    return run_collection(specs, SETUP, cache_dir=None)


def test_measure_matrix_bundle_is_complete():
    matrix = banded(2_000, 80, 40, seed=1, name="probe")
    record = measure_matrix(matrix, SETUP)
    assert record.name == "probe"
    assert set(record.measured) == {"0,0", "2,0", "5,0", "2,1", "5,1"}
    assert set(record.model_a) == {"0", "2", "5"}
    assert record.model_a_seconds > 0 and record.model_b_seconds > 0
    assert record.speedup(5, 0) > 0
    assert record.events(0, 0).l2_refill == record.l2_misses(0, 0)


def test_records_are_json_roundtrippable(records):
    from dataclasses import asdict

    for record in records:
        clone = MatrixRecord(**json.loads(json.dumps(asdict(record))))
        assert clone.l2_misses(0, 0) == record.l2_misses(0, 0)
        assert clone.classes == record.classes


def test_disk_cache_hits(tmp_path):
    specs = collection("tiny")[:1]
    first = run_collection(specs, SETUP, cache_dir=tmp_path)
    assert len(list(tmp_path.glob("*.json"))) == 1
    second = run_collection(specs, SETUP, cache_dir=tmp_path)
    assert first[0].measured == second[0].measured


def test_figure_series_cover_configurations(records):
    series = figure2_series(records, l2_ways=(2, 5), l1_ways=(0, 1))
    assert set(series) == {(2, 0), (5, 0), (2, 1), (5, 1)}
    text = render_figure2(series)
    assert "L2 ways 5" in text

    fig3 = figure3_series(records, l2_ways=(2, 5), l1_ways=(0, 1))
    assert all(s.count == len(records) for s in fig3.values())
    assert "speedup" in render_figure3(fig3)


def test_figure4_partitions_by_class(records):
    points = figure4_points(records, l2_ways=5)
    total = sum(len(v) for v in points.values())
    assert total == len(records)
    assert "Figure 4" in render_figure4(points)


def test_figure5_excludes_class1(records):
    machine = SETUP.machine()
    points = figure5_points(records, machine, l2_ways=5)
    assert "1" not in points
    assert isinstance(correlation(points), float)
    assert "Figure 5" in render_figure5(points)


def test_headline_numbers_fields(records):
    numbers = headline_numbers(records, l2_ways=5)
    assert set(numbers) == {
        "median_speedup",
        "max_speedup",
        "fraction_at_or_above_baseline",
        "fraction_10pct_or_more",
    }


def test_accuracy_rows_filter_small_matrices(records):
    machine = SETUP.machine()
    rows = accuracy_rows(records, machine, parallel=False, l2_way_options=(0, 5))
    for row in rows:
        assert row.method_a.count == row.method_b.count
    text = render_accuracy_table(rows, "T")
    assert text.startswith("T")


def test_l1_accuracy_and_overhead(records):
    machine = SETUP.machine()
    row = l1_accuracy(records, machine, parallel=False)
    assert row.config.startswith("L1")
    overhead = method_overhead(records)
    assert overhead["mean_ta_over_tb"] > 1.0  # method A processes more refs


def test_table1_driver_runs_on_subset():
    rows = run_table1(
        setup=ExperimentSetup(
            num_threads=8, l2_way_options=(0,), l1_way_options=(0,)
        ),
        proxy_scale=512,
        entries=TABLE1[:2],
    )
    assert len(rows) == 2
    assert all(r.gflops_ours > 0 for r in rows)
    text = render_table1(rows)
    assert "pdb1HYS" in text


def test_best_l2_ways_picks_lowest_median(records):
    from repro.experiments import best_l2_ways

    series = figure2_series(records, l2_ways=(2, 5), l1_ways=(0,))
    best = best_l2_ways(series)
    assert best in (2, 5)
    assert series[(best, 0)].median == min(
        series[(w, 0)].median for w in (2, 5)
    )


def _accuracy_record(name, mean_nnz, cv_nnz, predicted):
    return MatrixRecord(
        name=name, num_rows=1, num_cols=1, nnz=1,
        mean_nnz_per_row=mean_nnz, cv_nnz_per_row=cv_nnz,
        x_bytes=8, working_set_bytes=1 << 40, threads=1,
        measured={"0,0": {"l2_refill": 100}},
        model_a={"0": predicted}, model_b={"0": predicted},
    )


def test_regular_only_applies_the_section452_filter():
    machine = SETUP.machine()
    records = [
        _accuracy_record("regular", 8.0, 1.0, 90),
        _accuracy_record("short rows", 7.9, 0.5, 50),
        _accuracy_record("irregular", 12.0, 1.1, 50),
    ]
    (every,) = accuracy_rows(records, machine, parallel=False, l2_way_options=(0,))
    (regular,) = accuracy_rows(
        records, machine, parallel=False, l2_way_options=(0,), regular_only=True
    )
    assert every.method_a.count == 3
    assert regular.method_a.count == 1
    # only the regular record's 10 % error is left in the statistics
    assert regular.method_a.mape == pytest.approx(10.0)
