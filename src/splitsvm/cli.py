"""Command-line interface.

Subcommands:
  gen-data    write synthetic train/test CSVs
  train       fit a classifier and save the model file
  predict     label a feature-only CSV with a saved model
  evaluate    accuracy of a saved model on a labeled CSV
  reproduce   run a canned benchmark (t1 | t2 | fig3)

All hyperparameters are validated before any data is read, and output files
are written atomically, so a failing invocation leaves no partial files.
Exit status is 0 exactly when the command succeeded.  Errors and warnings
go to stderr as one line each, "error: ..." and "warning: ...".
"""

import argparse
import sys
import warnings

import numpy as np

from . import experiments
from ._io import write_text_atomic
from .admm import RHO_POLICIES, AdmmConfig
from .data import (
    Dataset,
    FeatureScaling,
    generate_synthetic,
    load_csv,
    load_features_csv,
    save_csv,
    save_labeled_features,
)
from .errors import SplitSvmError
from .kernels import KERNEL_FAMILIES, KernelSpec, gram
from .losses import LOSSES, get_loss
from .model import (
    load_model,
    predict_labels,
    rho_condition,
    save_model,
    train_multistart,
)


def _int_from(low):
    """An argparse type: an integer of at least ``low``."""
    def parse(text):
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    parse.__name__ = "int"  # argparse's name for text that is not an integer
    return parse


def _add_hyper_flags(p):
    p.add_argument("--loss", choices=sorted(LOSSES), default="hinge")
    p.add_argument("--kernel", choices=KERNEL_FAMILIES, default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0, help="kernel width (default 1)")
    p.add_argument("--lambda", dest="lam", type=float, default=0.1,
                   help="regularization weight (default 0.1)")
    p.add_argument("--rho", type=float, default=0.05,
                   help="splitting penalty (default 0.05)")
    p.add_argument("--eps0", type=float, default=1e-12,
                   help="stopping threshold on ||alpha - A c|| (default 1e-12)")
    p.add_argument("--max-iter", type=int, default=10000)
    p.add_argument("--starts", type=_int_from(1), default=20,
                   help="independent random starts (default 20)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitsvm",
        description="Binary kernel SVM training with nonconvex margin losses "
        "via ADMM splitting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write synthetic train/test CSVs")
    p.add_argument("--n-train", type=int, default=300)
    p.add_argument("--n-test", type=int, default=120)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--train", dest="train_path", required=True, help="output train CSV")
    p.add_argument("--test", dest="test_path", required=True, help="output test CSV")

    p = sub.add_parser("train", help="fit a classifier")
    _add_hyper_flags(p)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--train", dest="train_path", required=True, help="labeled train CSV")
    p.add_argument("--model", dest="model_path", required=True, help="output model file")
    p.add_argument("--trace", dest="trace_path", help="optional per-iteration CSV")
    p.add_argument("--standardize", action="store_true",
                   help="z-score features by training statistics")
    p.add_argument("--check-rho", choices=RHO_POLICIES, default="warn",
                   help="policy for the descent threshold on rho (default warn)")

    p = sub.add_parser("predict", help="label a feature-only CSV")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--data", dest="data_path", required=True, help="feature-only CSV")
    p.add_argument("--output", dest="output_path", required=True,
                   help="output CSV (features + predicted label)")

    p = sub.add_parser("evaluate", help="accuracy on a labeled CSV")
    p.add_argument("--model", dest="model_path", required=True)
    p.add_argument("--data", dest="data_path", required=True, help="labeled CSV")

    p = sub.add_parser("reproduce", help="run a canned benchmark")
    p.add_argument("table", choices=("t1", "t2", "fig3"))
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--output", dest="output_path", required=True, help="output CSV")

    return parser


def parse_args(argv=None) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def cmd_gen_data(args: argparse.Namespace) -> int:
    train, test = generate_synthetic(args.n_train, args.n_test, args.seed)
    save_csv(train, args.train_path)
    save_csv(test, args.test_path)
    print(f"wrote {train.n} training points to {args.train_path}")
    print(f"wrote {test.n} test points to {args.test_path}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    # Validates the hyperparameters before any data is read.
    cfg = AdmmConfig(lam=args.lam, rho=args.rho, eps0=args.eps0, max_iter=args.max_iter,
                     enforce_rho_condition=args.check_rho)
    spec = KernelSpec(args.kernel, args.sigma)
    train = load_csv(args.train_path)
    scaling = None
    if args.standardize:
        scaling = FeatureScaling.fit(train.X)
        train = Dataset(scaling.apply(train.X), train.y)
    A = gram(spec, train.X)

    check = rho_condition(A, cfg)
    if (line := check.line(cfg.rho)) is not None:
        print(line)

    loss = get_loss(args.loss)
    model, summaries = train_multistart(
        train, spec, loss, cfg, args.starts, args.seed,
        gram_matrix=A, rho_check=check, trace=bool(args.trace_path),
    )
    model.scaling = scaling

    print(f"{'start':>5} {'objective':>24} {'iters':>7} {'residual':>12} {'converged':>9}")
    for s in summaries:
        if s.error is not None:
            print(f"{s.index:>5} failed: {s.error}")
        else:
            print(
                f"{s.index:>5} {s.objective:>24.16g} {s.iterations:>7} "
                f"{s.residual:>12.3e} {str(bool(s.converged)):>9}"
            )
    print(f"selected start {model.meta.start_index} "
          f"(objective {model.meta.objective:.16g})")

    save_model(model, args.model_path)
    print(f"wrote model to {args.model_path}")
    if args.trace_path:
        write_text_atomic(args.trace_path, summaries[model.meta.start_index].trace.to_csv())
        print(f"wrote trace to {args.trace_path}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    feats = load_features_csv(args.data_path)
    labels = predict_labels(model, feats)
    save_labeled_features(feats, labels, args.output_path)
    print(f"wrote {feats.shape[0]} predictions to {args.output_path}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    ds = load_csv(args.data_path)
    correct = int(np.sum(predict_labels(model, ds.X) == ds.y))
    print(f"{correct}/{ds.n} accuracy: {100.0 * correct / ds.n:.1f}%")
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    if args.table == "fig3":
        run, certificate = experiments.convergence_trace(args.seed)
        write_text_atomic(args.output_path, run.trace.to_csv(extra_cumulative_step_norm=True))
        rec = run.trace.final
        print(f"status: {run.status} after {run.state.k} iterations")
        print(f"final residual: {rec.residual:.3e}, objective: {rec.objective:.12g}")
        print(f"stationarity residual: {certificate:.3e}")
        print(f"wrote trace to {args.output_path}")
        return 0
    if args.table == "t2":
        rows = experiments.loss_kernel_table(args.seed)
        include_seconds = False
    else:
        rows = experiments.size_scaling_table(args.seed)
        include_seconds = True
    write_text_atomic(args.output_path, experiments.rows_to_csv(rows, include_seconds))
    print(experiments.rows_to_markdown(rows, include_seconds), end="")
    print(f"wrote table to {args.output_path}")
    return 0


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "reproduce": cmd_reproduce,
}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One line a warning, as for errors; filters and attribution are untouched.
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        return _COMMANDS[args.command](args)
    except (SplitSvmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
