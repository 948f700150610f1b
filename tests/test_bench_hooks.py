"""The benchmark tracer's hook sites still name functions of the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

#: Sites that name functions the package no longer has.  A traced benchmark
#: run lists them under "hooks not found" until the benchmark drops them.
KNOWN_STALE = {
    "splitsvm.cli.min_eigenvalue",
    "splitsvm.admm.cg_solve",
    "splitsvm.kernels.cg_solve",
}


def hook_sites():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [dotted for _, sites in spans.HOOKS for dotted in sites]


def test_every_hook_site_resolves():
    unresolved = set()
    for dotted in hook_sites():
        mod_name, attr = dotted.rsplit(".", 1)
        if not callable(getattr(importlib.import_module(mod_name), attr, None)):
            unresolved.add(dotted)
    assert unresolved <= KNOWN_STALE, sorted(unresolved - KNOWN_STALE)


def count_sites(monkeypatch, sites):
    """Wrap each dotted site so that its calls are listed, in order."""
    calls = []
    for dotted in sites:
        mod_name, attr = dotted.rsplit(".", 1)
        mod = importlib.import_module(mod_name)
        real = getattr(mod, attr)

        def counted(*args, _real=real, _dotted=dotted, **kwargs):
            calls.append(_dotted)
            return _real(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)
    return calls


# The benchmark worker patches these names to capture each train's result,
# end its set-up (the boundary) and replay its set-up calls.  A round that
# never reaches its boundary counts as failed, so a refactor that moves one
# of these calls breaks the benchmark.


def test_train_and_predict_reach_the_benchmark_sites(tmp_path, monkeypatch):
    from splitsvm import cli

    train, test = tmp_path / "train.csv", tmp_path / "test.csv"
    model = tmp_path / "model.txt"
    assert cli.main(["gen-data", "--n-train", "20", "--n-test", "10",
                     "--train", str(train), "--test", str(test)]) == 0
    calls = count_sites(monkeypatch, ["splitsvm.cli.train_multistart",
                                      "splitsvm.model.c_inverse",
                                      "splitsvm.model.initial_state",
                                      "splitsvm.cli.load_features_csv"])
    assert cli.main(["train", "--train", str(train), "--model", str(model), "--starts", "2",
                     "--max-iter", "3", "--check-rho", "off"]) == 0
    assert calls.count("splitsvm.cli.train_multistart") == 1
    assert "splitsvm.model.initial_state" in calls
    assert calls.index("splitsvm.model.c_inverse") < calls.index("splitsvm.model.initial_state")
    features = tmp_path / "features.csv"
    features.write_text("0.5,0.5\n-3.0,2.0\n")
    assert cli.main(["predict", "--model", str(model), "--data", str(features),
                     "--output", str(tmp_path / "labeled.csv")]) == 0
    assert calls.count("splitsvm.cli.load_features_csv") == 1


def test_loss_kernel_table_reaches_the_benchmark_sites(monkeypatch):
    from splitsvm import experiments

    sites = ["splitsvm.experiments.train_multistart",
             "splitsvm.experiments.generate_synthetic",
             "splitsvm.experiments.gram"]
    calls = count_sites(monkeypatch, sites)
    experiments.loss_kernel_table(0, starts=2)
    assert set(calls) == set(sites)
