"""The paper's central claim as a gate: RUAD beats the time-unaware detectors
trained the same way (Molan et al., RUAD, arXiv 2208.13169).

On a small synthetic sweep where most anomalies are temporal disruptions,
each seed's pooled AUCs must keep the paper's paired ranking: the
semi-supervised RUAD above the semi-supervised dense autoencoder, the
unsupervised RUAD above the unsupervised dense autoencoder, and both RUAD
variants above clustering. The seeds were fixed before any result was known.

AUCs at the time of writing, for reference (not gated):

    seed  CLU    DENSE_semi  DENSE_un  EXP    RUAD_W10  RUAD_semi_W10
    1     0.474  0.553       0.558     0.622  0.676     0.814
    2     0.405  0.714       0.790     0.543  0.845     0.802
    3     0.445  0.493       0.542     0.584  0.625     0.843
"""

import json

import pytest

from nodewatch.cli import main
from nodewatch.models import METHODS
from nodewatch.util import write_json

SYNTH = dict(
    node_count=4,
    metric_count=8,
    timestep_count=1200,
    anomaly_rate=0.06,
    anomaly_mix={"temporal_disruption": 0.8, "level_shift": 0.1, "correlation_break": 0.1},
)
RUN = dict(
    methods=list(METHODS),
    windows=[10],
    training={"max_epochs": 10, "learning_rate": 0.01, "batch_size": 64},
    workers=2,
)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ruad_beats_its_time_unaware_counterparts(tmp_path, seed):
    synth, run, data, out = (tmp_path / name for name in ("synth.json", "run.json", "data", "run"))
    # not write_json: the generator draws anomaly kinds in anomaly_mix's key order,
    # so the file keeps the order above rather than sorting it
    synth.write_text(json.dumps(dict(SYNTH, seed=seed)))
    write_json(run, dict(RUN, data_dir=str(data), seed=seed))
    assert main(["generate", "--config", str(synth), "--out", str(data)]) == 0
    for command in ("train", "evaluate"):
        assert main([command, "--config", str(run), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    auc = {name: entry["auc"] for name, entry in summary.items()}
    assert auc["RUAD_semi_W10"] > auc["DENSE_semi"], auc
    assert auc["RUAD_W10"] > auc["DENSE_un"], auc
    assert min(auc["RUAD_semi_W10"], auc["RUAD_W10"]) > auc["CLU"], auc
