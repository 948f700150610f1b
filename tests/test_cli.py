import numpy as np
import pytest

from splitsvm.cli import main, parse_args
from splitsvm.data import load_csv
from splitsvm.model import load_model


def run_cli(*args):
    return main(list(args))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def test_parse_train_defaults():
    rc = parse_args(["train", "--train", "a.csv", "--model", "m.txt"])
    assert rc.command == "train"
    assert rc.loss == "hinge"
    assert rc.kernel == "gaussian"
    assert rc.sigma == 1.0
    assert rc.lam == 0.1
    assert rc.rho == 0.05
    assert rc.eps0 == 1e-12
    assert rc.max_iter == 10000
    assert rc.starts == 20
    assert rc.check_rho == "warn"
    assert not rc.standardize


def test_parse_rejects_unknown_loss():
    with pytest.raises(SystemExit):
        parse_args(["train", "--train", "a.csv", "--model", "m.txt",
                    "--loss", "square"])


def test_parse_rejects_unknown_table():
    with pytest.raises(SystemExit):
        parse_args(["reproduce", "t9", "--output", "o.csv"])


def test_parse_requires_subcommand():
    with pytest.raises(SystemExit):
        parse_args([])


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def test_gen_data_writes_both_files(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    code = run_cli("gen-data", "--n-train", "20", "--n-test", "8",
                   "--seed", "4", "--train", str(train), "--test", str(test))
    assert code == 0
    out = capsys.readouterr().out
    assert "20 training points" in out
    assert load_csv(str(train)).n == 20
    assert load_csv(str(test)).n == 8


def test_gen_data_deterministic_bytes(tmp_path):
    paths = []
    for tag in ("a", "b"):
        train = tmp_path / f"train_{tag}.csv"
        test = tmp_path / f"test_{tag}.csv"
        assert run_cli("gen-data", "--n-train", "12", "--n-test", "4",
                       "--seed", "9", "--train", str(train), "--test", str(test)) == 0
        paths.append((train, test))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_gen_data_odd_count_fails_cleanly(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    code = run_cli("gen-data", "--n-train", "13", "--n-test", "4",
                   "--train", str(train), "--test", str(test))
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not train.exists()
    assert not test.exists()


# ---------------------------------------------------------------------------
# train / evaluate / predict round trip
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    train = root / "train.csv"
    test = root / "test.csv"
    assert main(["gen-data", "--n-train", "40", "--n-test", "20", "--seed", "2",
                 "--train", str(train), "--test", str(test)]) == 0
    return train, test


def train_args(train, model, *extra):
    return ["train", "--train", str(train), "--model", str(model),
            "--loss", "hinge", "--lambda", "0.5", "--rho", "5", "--sigma", "0.5",
            "--starts", "2", "--eps0", "1e-10", "--seed", "3", *extra]


def test_train_writes_model_and_trace(tmp_path, capsys, data_files):
    train, _ = data_files
    model_path = tmp_path / "model.txt"
    trace_path = tmp_path / "trace.csv"
    code = main(train_args(train, model_path, "--trace", str(trace_path),
                           "--check-rho", "off"))
    assert code == 0
    out = capsys.readouterr().out
    assert "selected start" in out
    assert "wrote model to" in out
    m = load_model(str(model_path))
    assert m.meta.loss_name == "hinge"
    assert m.scaling is None
    header = trace_path.read_text().splitlines()[0]
    assert header == "k,lagrangian,objective,residual,step_norm_H"


def test_train_reports_rho_condition(tmp_path, capsys, data_files):
    train, _ = data_files
    model_path = tmp_path / "model.txt"
    with pytest.warns(RuntimeWarning, match="descent threshold"):
        code = main(train_args(train, model_path))
    assert code == 0
    assert "rho condition:" in capsys.readouterr().out


def test_train_computes_lambda_min_once(tmp_path, capsys, data_files, monkeypatch):
    import splitsvm.model as model_mod

    calls = []
    real = model_mod.min_eigenvalue
    monkeypatch.setattr(model_mod, "min_eigenvalue", lambda A: calls.append(1) or real(A))
    train, _ = data_files
    with pytest.warns(RuntimeWarning) as caught:
        code = main(train_args(train, tmp_path / "model.txt", "--rho", "0.01"))
    assert code == 0
    assert len(calls) == 1
    assert len(caught) == 1 and "descent threshold" in str(caught[0].message)
    assert "(NOT satisfied)" in capsys.readouterr().out


def test_train_deterministic_model_bytes(tmp_path, data_files):
    train, _ = data_files
    p1 = tmp_path / "m1.txt"
    p2 = tmp_path / "m2.txt"
    assert main(train_args(train, p1, "--check-rho", "off")) == 0
    assert main(train_args(train, p2, "--check-rho", "off")) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_train_standardize_persists_scaling(tmp_path, data_files):
    train, _ = data_files
    model_path = tmp_path / "model.txt"
    assert main(train_args(train, model_path, "--standardize",
                           "--check-rho", "off")) == 0
    m = load_model(str(model_path))
    assert m.scaling is not None
    assert "scaling 1" in model_path.read_text()


def test_train_invalid_hyperparameter_leaves_no_file(tmp_path, capsys, data_files):
    train, _ = data_files
    model_path = tmp_path / "model.txt"
    code = main(["train", "--train", str(train), "--model", str(model_path),
                 "--lambda", "-1"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not model_path.exists()


def test_train_missing_data_file(tmp_path, capsys):
    code = main(["train", "--train", str(tmp_path / "nope.csv"),
                 "--model", str(tmp_path / "m.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_evaluate_reports_accuracy(tmp_path, capsys, data_files):
    train, test = data_files
    model_path = tmp_path / "model.txt"
    assert main(train_args(train, model_path, "--check-rho", "off")) == 0
    capsys.readouterr()
    code = run_cli("evaluate", "--model", str(model_path), "--data", str(test))
    assert code == 0
    out = capsys.readouterr().out.strip()
    assert "/20 accuracy:" in out
    correct = int(out.split("/")[0])
    assert correct >= 14  # two well-separated squares: well above chance


def test_predict_writes_labeled_csv(tmp_path, capsys, data_files):
    train, test = data_files
    model_path = tmp_path / "model.txt"
    assert main(train_args(train, model_path, "--check-rho", "off")) == 0

    # strip labels to make a feature-only file
    ds = load_csv(str(test))
    feats_path = tmp_path / "features.csv"
    feats_path.write_text(
        "\n".join(",".join(f"{v:.17g}" for v in row) for row in ds.X) + "\n"
    )
    out_path = tmp_path / "predictions.csv"
    code = run_cli("predict", "--model", str(model_path),
                   "--data", str(feats_path), "--output", str(out_path))
    assert code == 0
    pred = load_csv(str(out_path))
    assert pred.n == ds.n
    np.testing.assert_allclose(pred.X, ds.X, rtol=1e-15)
    assert set(np.unique(pred.y)) <= {-1.0, 1.0}


def test_predict_missing_model(tmp_path, capsys):
    code = run_cli("predict", "--model", str(tmp_path / "no.txt"),
                   "--data", str(tmp_path / "no.csv"),
                   "--output", str(tmp_path / "o.csv"))
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


def test_reproduce_fig3_writes_cumulative_trace(tmp_path, capsys):
    out_path = tmp_path / "trace.csv"
    code = run_cli("reproduce", "fig3", "--seed", "0", "--output", str(out_path))
    assert code == 0
    printed = capsys.readouterr().out
    assert "status: converged" in printed
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,lagrangian,objective,residual,step_norm_H,cum_step_norm_H"
    cum = [float(l.split(",")[-1]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(cum, cum[1:]))
    resid = [float(l.split(",")[3]) for l in lines[1:]]
    assert resid[-1] < 1e-12
