"""The names the benchmark in ``perfbench/`` reaches in nodewatch still exist.

perfbench wraps functions by name, its tracer binds some of their
arguments by name, and its output checks call the model loaders and read
attributes of what they return, so a rename or a narrowed type that would
make a benchmark run fail fails here first. This test only reads
``perfbench/``.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# what perfbench's workloads and oracles use besides the tracer's targets
CHECKS = [
    ("models", "load_trained_model"),
    ("models", "load_cluster_model"),
    ("models", "model_path"),
    ("models", "WINDOWED_METHODS"),
    ("models", "method_instance_name"),
]


# attributes perfbench reads on results: (module, class, attribute)
ATTRIBUTES = [
    ("models", "TrainedModel", "regime"),
    ("models", "Regime", "semi_supervised"),
    ("models", "ClusterModel", "scaler"),
    ("models", "ClusterModel", "kmeans"),
    ("baselines", "KMeansModel", "centroids"),
    ("baselines", "KMeansModel", "cluster_anomaly_prob"),
    ("pipeline", "ScalerParams", "minimum"),
    ("pipeline", "ScalerParams", "maximum"),
    ("neuralnet", "LstmLayer", "hidden_dim"),
    ("neuralnet", "LstmLayer", "in_dim"),
    ("neuralnet", "DenseLayer", "in_dim"),
    ("neuralnet", "DenseLayer", "out_dim"),
    ("neuralnet", "NetworkParams", "layers"),
]


# arguments the tracer's attribute readers bind by name: (module, function, names)
ARGUMENTS = [
    ("telemetry", "NodeDataset.from_csv", ("path",)),
    ("telemetry", "NodeDataset.to_csv", ("path",)),
    ("neuralnet", "forward", ("params", "x")),
    ("baselines", "kmeans_fit", ("rows", "k", "seed")),
    ("cli", "cmd_train", ("cfg",)),
]


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracer  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(tracer)
    finally:
        del sys.modules[spec.name]
    return [(module, attr_path) for module, attr_path, _ in tracer.TARGETS]


def lookup(module, attr_path):
    """The attribute ``attr_path`` names in ``nodewatch.<module>``, or None."""
    target = importlib.import_module(f"nodewatch.{module}")
    for part in attr_path.split("."):
        target = getattr(target, part, None)
    return target


def resolves(module, attr_path):
    return lookup(module, attr_path) is not None


def is_attribute(module, cls_name, attr):
    """Whether instances of the class carry ``attr`` as a dataclass field or
    a property."""
    cls = getattr(importlib.import_module(f"nodewatch.{module}"), cls_name)
    field_names = {f.name for f in dataclasses.fields(cls)}
    return attr in field_names or isinstance(getattr(cls, attr, None), property)


def test_every_benchmark_name_resolves():
    names = tracer_targets() + CHECKS
    assert len(names) > len(CHECKS)
    assert [f"{m}.{a}" for m, a in names if not resolves(m, a)] == []


def test_every_attribute_read_on_results_resolves():
    missing = [f"{m}.{c}.{a}" for m, c, a in ATTRIBUTES if not is_attribute(m, c, a)]
    assert missing == []


def test_every_argument_the_tracer_binds_is_a_parameter():
    missing = [
        f"{m}.{f}({name})"
        for m, f, names in ARGUMENTS
        for name in names
        if name not in inspect.signature(lookup(m, f)).parameters
    ]
    assert missing == []
