import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import splitsvm
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


def test_parse_accepts_the_lowest_seed_and_starts():
    rc = parse_args(["train", "--train", "a.csv", "--model", "m.txt",
                     "--seed", "0", "--starts", "1"])
    assert (rc.seed, rc.starts) == (0, 1)


# Each names files that do not exist: the bad value is reported, by
# argparse with exit status 2, before any file is read or written.
@pytest.mark.parametrize("argv, message", [
    (["train", "--seed", "-1", "--train", "missing.csv", "--model", "m.txt"],
     "argument --seed: must be at least 0, got -1"),
    (["train", "--starts", "0", "--train", "missing.csv", "--model", "m.txt"],
     "argument --starts: must be at least 1, got 0"),
    (["gen-data", "--seed", "-1", "--train", "a.csv", "--test", "b.csv"],
     "argument --seed: must be at least 0, got -1"),
    (["reproduce", "t2", "--seed", "-1", "--output", "o.csv"],
     "argument --seed: must be at least 0, got -1"),
], ids=["train-seed", "train-starts", "gen-data-seed", "reproduce-seed"])
def test_negative_seed_and_zero_starts_fail_before_any_file(tmp_path, capsys, argv, message):
    argv = [str(tmp_path / a) if a.endswith((".csv", ".txt")) else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert message in err
    assert "missing.csv" not in err
    assert os.listdir(tmp_path) == []


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
    # A condition that fails at a leading minor is decided by one Cholesky
    # and computes no lambda_min(A); one that factors computes it once.
    import splitsvm.model as model_mod

    calls = []
    for name in ("min_eigenvalue", "descent_minor"):
        real = getattr(model_mod, name)
        monkeypatch.setattr(model_mod, name,
                            lambda *args, _real=real, _name=name: calls.append(_name)
                            or _real(*args))
    train, _ = data_files
    with pytest.warns(RuntimeWarning) as caught:
        code = main(train_args(train, tmp_path / "model.txt", "--rho", "0.01"))
    assert code == 0
    assert calls == ["descent_minor"]
    assert len(caught) == 1 and "descent threshold" in str(caught[0].message)
    assert "(NOT satisfied)" in capsys.readouterr().out
    calls.clear()
    code = main(train_args(train, tmp_path / "model.txt", "--rho", "100", "--max-iter", "5"))
    assert code == 0
    assert calls == ["descent_minor", "min_eigenvalue"]
    assert "(satisfied)" in capsys.readouterr().out


def test_rho_threshold_is_printed_to_three_digits(tmp_path, capsys, data_files, monkeypatch):
    # A lambda_min near the noise floor is known to about 3e-5 relative, so
    # two estimates that far apart print the same line and the same texts.
    import splitsvm.model as model_mod

    train, _ = data_files

    def rho_texts():
        """The rho condition line, the warnings and the --check-rho error text."""
        with pytest.warns(RuntimeWarning, match="descent threshold") as caught:
            assert main(train_args(train, tmp_path / "model.txt", "--max-iter", "1")) == 0
        out = capsys.readouterr().out
        line, = [line for line in out.splitlines() if line.startswith("rho condition:")]
        assert main(train_args(train, tmp_path / "model.txt", "--check-rho", "error")) == 1
        return line, [str(warning.message) for warning in caught], capsys.readouterr().err

    # The condition fails at a leading minor: a lower bound on the threshold.
    line, warned, error = rho_texts()
    assert line == "rho condition: rho = 5 vs threshold 4*lam/lambda_min >= 18.1 (NOT satisfied)"
    assert warned == ["rho = 5.0 is below the descent threshold, which is at least 18.1; "
                      "monotone descent is not guaranteed"]
    assert error == ("error: rho = 5.0 does not exceed the descent threshold "
                     "4*lam/lambda_min >= 18.1\n")

    # A matrix that factors leaves the threshold to lambda_min(A).
    monkeypatch.setattr(model_mod, "descent_minor", lambda A, lam, rho: 0)
    w = 4.0 * 0.5 / 6.99674e9  # lam = 0.5 in train_args
    texts = []
    for estimate in (w, w * (1.0 + 3e-5)):
        monkeypatch.setattr(model_mod, "min_eigenvalue", lambda A, w=estimate: w)
        texts.append(rho_texts())
    assert texts[0] == texts[1]
    line, warned, error = texts[0]
    assert line == ("rho condition: rho = 5 vs threshold "
                    "4*lam/lambda_min = 7.00e+09 (NOT satisfied)")
    assert len(warned) == 1 and "7.00e+09" in warned[0]
    assert "7.00e+09" in error


RHO_WARNING = ("rho = 5.0 is below the descent threshold, which is at least 18.1; "
               "monotone descent is not guaranteed")


def test_train_prints_each_warning_as_one_line(tmp_path, data_files):
    # In a process of its own, where no filter turns the warning into an
    # error: stderr holds "warning: <message>" and no source path or line.
    train, _ = data_files
    src = os.path.dirname(os.path.dirname(splitsvm.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "splitsvm.cli",
         *train_args(train, tmp_path / "model.txt", "--max-iter", "1")],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0
    assert proc.stderr == f"warning: {RHO_WARNING}\n"


def test_recorded_warnings_keep_their_text_and_attribution(tmp_path, data_files):
    # main swaps the formatter only while a command runs; a caller that
    # records warnings gets them as they are raised, naming cli.py.
    train, _ = data_files
    default_format = warnings.formatwarning
    with pytest.warns(RuntimeWarning) as caught:
        assert main(train_args(train, tmp_path / "model.txt", "--max-iter", "1")) == 0
        assert warnings.formatwarning is default_format
        assert main(train_args(train, tmp_path / "model.txt", "--check-rho", "error")) == 1
        assert warnings.formatwarning is default_format
    assert [str(w.message) for w in caught] == [RHO_WARNING]
    assert os.path.basename(caught[0].filename) == "cli.py"


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


def test_predict_with_a_model_that_is_not_utf8(tmp_path, capsys):
    model_path = tmp_path / "model.txt"
    model_path.write_bytes(b"splitsvm-model 1\n\xff\n")
    out_path = tmp_path / "o.csv"
    code = run_cli("predict", "--model", str(model_path),
                   "--data", str(tmp_path / "no.csv"), "--output", str(out_path))
    assert code == 1
    assert capsys.readouterr().err == f"error: {model_path}: not UTF-8 text\n"
    assert not out_path.exists()


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
    # The certificate follows the final residual, on one line of its own.
    out_lines = printed.splitlines()
    final = [i for i, line in enumerate(out_lines) if line.startswith("final residual: ")]
    assert len(final) == 1
    label, value = out_lines[final[0] + 1].split(": ")
    assert label == "stationarity residual" and value == f"{float(value):.3e}"
    assert float(value) <= 1e-6
    lines = out_path.read_text().splitlines()
    assert lines[0] == "k,lagrangian,objective,residual,step_norm_H,cum_step_norm_H"
    cum = [float(l.split(",")[-1]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(cum, cum[1:]))
    resid = [float(l.split(",")[3]) for l in lines[1:]]
    assert resid[-1] < 1e-12
