import pytest

import tracer as tr


def span(sid, parent, name, start, end, **attrs):
    return tr.Span(sid, parent, name, start, end, attrs)


def test_self_time_subtracts_children():
    spans = [
        span("a", None, "cli.cmd_train", 0.0, 10.0, workers=1),
        span("b", "a", "models.train_node_model", 1.0, 4.0),
        span("c", "b", "neuralnet.train_autoencoder", 1.5, 3.5, epochs=1),
        span("d", "a", "util.write_json", 5.0, 6.0),
    ]
    own = tr.self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert own["b"] == pytest.approx(3.0 - 2.0)
    assert own["c"] == pytest.approx(2.0)
    assert own["d"] == pytest.approx(1.0)
    # self times partition the root's interval
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    # two pool workers run side by side under one command span
    spans = [
        span("p", None, "cli.cmd_train", 0.0, 10.0, workers=2),
        span("w1", "p", "cli._run_train_job", 1.0, 7.0),
        span("w2", "p", "cli._run_train_job", 2.0, 8.0),
        span("w3", "p", "cli._run_train_job", 7.5, 12.0),  # clipped at the parent's end
    ]
    assert tr.self_times(spans)["p"] == pytest.approx(10.0 - (8.0 - 1.0) - (10.0 - 8.0))


def test_layer_metrics_on_a_hand_built_tree():
    spans = [
        span("t", None, "cli.cmd_train", 0.0, 4.0, workers=2),
        span("j1", "t", "cli._run_train_job", 0.0, 3.0),
        span("j2", "t", "cli._run_train_job", 0.0, 1.0),
        span("l1", "j1", "telemetry.NodeDataset.from_csv", 0.0, 0.5, path="n0.csv", bytes=1_000_000),
        span("l2", "j2", "telemetry.NodeDataset.from_csv", 0.0, 0.5, path="n0.csv", bytes=1_000_000),
        span("s", None, "cli.cmd_score", 5.0, 6.0),
        span("l3", "s", "telemetry.NodeDataset.from_csv", 5.0, 5.5, path="n0.csv", bytes=1_000_000),
        span("l4", "s", "telemetry.NodeDataset.from_csv", 5.5, 6.0, path="n1.csv", bytes=1_000_000),
        span("k1", "j1", "baselines.kmeans_fit", 1.0, 2.0, fit=[2, 7, [10, 3]]),
        span("k2", "j1", "baselines.kmeans_fit", 2.0, 3.0, fit=[2, 7, [10, 3]]),
        span("f", "j1", "neuralnet.forward", 0.5, 0.75, flops=1_000),
    ]
    m = tr.layer_metrics(spans)
    assert m["telemetry.from_csv_calls"] == 4
    assert m["telemetry.from_csv_mb_per_s"] == pytest.approx(4.0 / 2.0)
    # train: 2 loads of 1 file; score: 2 loads of 2 files
    assert m["cli.dataset_loads_per_node"] == pytest.approx(4 / 3)
    assert m["cli.train_jobs"] == 2
    assert m["cli.pool_utilisation"] == pytest.approx(4.0 / (2 * 4.0))
    assert m["baselines.kmeans_distinct_fit_ratio"] == pytest.approx(0.5)
    # a forward pass outside train_autoencoder is neither training nor inference
    assert m["neuralnet.batches"] == 0 and m["neuralnet.inference_forward_s"] == 0


def test_tracer_patches_every_import_site_and_restores_them(tmp_path):
    from nodewatch import baselines, models

    original = models.kmeans_fit
    assert original is baselines.kmeans_fit
    tracer = tr.Tracer(tmp_path)
    tracer.install()
    try:
        assert models.kmeans_fit is not original
        assert models.kmeans_fit is baselines.kmeans_fit
    finally:
        tracer.uninstall()
    assert models.kmeans_fit is original and baselines.kmeans_fit is original


def test_spans_outside_a_cli_command_are_left_out():
    # an output check loads a model and scores its training rows while the
    # tracer is installed; none of that is the program's work
    spans = [
        span("s", None, "cli.cmd_score", 0.0, 2.0),
        span("r", "s", "models.load_trained_model", 0.0, 0.5),
        span("p", "s", "models.score_node_model", 0.5, 1.5, items=10),
        span("cr", None, "models.load_trained_model", 3.0, 4.0),
        span("cp", None, "models.score_node_model", 4.0, 6.0, items=100),
        span("cf", "cp", "neuralnet.forward", 4.0, 5.0, flops=1_000),
    ]
    m = tr.layer_metrics(spans)
    assert m["scoring.scored_points"] == 10
    assert m["models.store_read_s"] == pytest.approx(0.5)
    assert m["models.self_s"] == pytest.approx(1.5)
    assert m["neuralnet.self_s"] == 0
    assert m["trace.spans"] == 3


def test_calls_outside_a_cli_command_do_not_reach_the_metrics(tmp_path):
    import numpy as np
    from nodewatch import baselines

    rows = np.random.default_rng(0).random((40, 3))
    tracer = tr.Tracer(tmp_path)
    tracer.install()
    try:
        baselines.kmeans_fit(rows, 2, 0)
    finally:
        tracer.uninstall()
    spans = tracer.collect()
    assert "baselines.kmeans_fit" in {s.name for s in spans}
    m = tr.layer_metrics(spans)
    assert m["baselines.kmeans_fit_calls"] == 0 and m["trace.spans"] == 0
