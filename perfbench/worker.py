"""Run one benchmark workload in this process; print its result last.

run.py starts this file in a fresh process, with the BLAS thread count
already pinned in the environment and ``src`` on PYTHONPATH.  The workloads,
metrics and checks are described in README.md.

run.py first starts it with ``--prepare``, which writes the workload's input
files and exits, so that the memory of making them is not counted in the
measured process's peak.

A run measures whole rounds of the same operations, one at a time (closed
loop), and starts another round only while it is expected to end within
``--seconds``; there is always at least one.  Untraced rounds give the
end-to-end metrics.  With ``--trace 1`` the run alternates untraced and
traced rounds, and reports per-layer metrics and the tracing overhead.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import warnings

import numpy as np

import reference
import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")

#: Relative agreement required of objectives that must be equal.
OBJ_RTOL = 1e-9
#: A decision value this small relative to sum_i |c_i k(x_i, x)| is rounding noise.
TIE_RTOL = 1e-10

# t2: the Table-2 protocol on T2_DRAWS data draws per round, T2_STARTS starts each.
T2_DRAWS = 2
T2_STARTS = 2
T2_SETUP_REPS = 100

# The t1 protocol's largest row draws its data with seed 3 + 9.
T1_ROW_SEED = 12
TRAIN_ITERS = 500
TRAIN_ARGS = ("--loss", "pl2", "--kernel", "gaussian", "--sigma", "1",
              "--lambda", "0.1", "--rho", "1", "--starts", "1")

PREDICT_POINTS = 20000
PREDICT_FIT_ITERS = 30


class SetupDone(Exception):
    """Raised at the end of set-up to cut a set-up-only sample short."""


class Probe:
    """Hooks kept on in every round, traced or not.

    They run once per start or per command, never per iteration: one keeps
    what train_multistart returns, one stamps the first call of the
    workload's repeated work, which ends set-up, and one records the calls
    that make up a workload's set-up, so that they can be timed again.
    """

    def __init__(self, modules, boundary, setup_calls):
        self.captured = []
        self.calls = []
        self.mark = None
        self.abort = False
        for dotted in ("splitsvm.cli.train_multistart", "splitsvm.experiments.train_multistart"):
            spans.patch(modules, dotted, self._capture)
        if boundary:
            spans.patch(modules, boundary, self._boundary)
        for dotted in setup_calls:
            spans.patch(modules, dotted, self._record)

    def reset(self):
        self.captured = []
        self.mark = None

    def _capture(self, fn):
        def captured(*args, **kwargs):
            model, summaries = fn(*args, **kwargs)
            self.captured.append({"data": args[0], "model": model, "summaries": summaries})
            return model, summaries

        return captured

    def _boundary(self, fn):
        def boundary(*args, **kwargs):
            if self.mark is None:
                self.mark = time.perf_counter()
                if self.abort:
                    raise SetupDone
            return fn(*args, **kwargs)

        return boundary

    def _record(self, fn):
        def recorded(*args, **kwargs):
            self.calls.append((fn, args, kwargs))
            return fn(*args, **kwargs)

        return recorded


class Round:
    def __init__(self):
        self.run_s = 0.0
        self.setup_s = None
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.signature = None
        self.detail = None


def run_cli(cli, argv):
    """cli.main(argv) with its stdout and warnings kept, not shown."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(argv)
    return rc, out.getvalue(), [str(w.message) for w in caught]


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def check_starts(tag, loss, capture, problems):
    """No start failed, the winner is the first lowest-objective start, and
    converged hinge starts agree."""
    model, summaries = capture["model"], capture["summaries"]
    objs = [s.objective for s in summaries]
    if any(s.error is not None for s in summaries):
        problems.append(f"{tag}: a start failed: {[s.error for s in summaries]}")
        return
    win = model.meta.start_index
    if objs[win] != min(objs) or any(o == objs[win] for o in objs[:win]):
        problems.append(f"{tag}: start {win} won but objectives are {objs}")
    if loss == "hinge":
        conv = [o for o, s in zip(objs, summaries) if s.converged]
        if conv and rel_diff(max(conv), min(conv)) > OBJ_RTOL:
            problems.append(f"{tag}: converged hinge starts disagree: {conv}")


def check_objective(tag, loss, family, sigma, lam, x, y, coeffs, reported, problems):
    """The reported objective recomputes from the coefficients."""
    ref = reference.objective(loss, family, sigma, lam, x, y, coeffs)
    if rel_diff(ref, reported) > OBJ_RTOL:
        problems.append(f"{tag}: objective {reported!r} recomputes to {ref!r}")


def check_accuracy(tag, family, sigma, centers, coeffs, x, y, reported, problems):
    """Test accuracy near the Bayes accuracy, and equal to the program's."""
    dv, scale = reference.decision_values(family, sigma, centers, coeffs, x)
    exempt = np.abs(dv) <= TIE_RTOL * scale
    acc = float(np.mean(reference.labels(dv) == y))
    slack = reference.accuracy_slack(x.shape[0])
    if abs(acc - reference.bayes_accuracy()) > slack:
        problems.append(f"{tag}: test accuracy {acc:.4f} is outside "
                        f"{reference.bayes_accuracy():.4f} +- {slack:.4f}")
    if reported is not None and abs(reported - acc) > exempt.sum() / x.shape[0] + 1e-12:
        problems.append(f"{tag}: program reports test accuracy {reported!r}, reference {acc!r}")


class T2:
    """The Table-2 protocol through experiments.loss_kernel_table."""

    work_unit = "ADMM iterations"
    boundary = None
    setup_calls = ("splitsvm.experiments.generate_synthetic", "splitsvm.experiments.gram")

    @staticmethod
    def prepare(sp, seed, workdir):
        """loss_kernel_table draws its own data from the protocol seed."""

    def __init__(self, sp, seed, workdir):
        self.sp = sp
        self.protocol_seeds = [T2_DRAWS * seed + j for j in range(T2_DRAWS)]
        self.calls = None

    def setup_samples(self, probe):
        """Replays of the data draws and Gram builds the first round made.

        The calls and their arguments are the ones loss_kernel_table made,
        recorded by the probe, so the samples follow the program's own
        set-up.  Before the first round there is nothing to replay.
        """
        if not self.calls:
            return []
        samples = []
        for _ in range(T2_SETUP_REPS + 1):
            t0 = time.perf_counter()
            for fn, args, kwargs in self.calls:
                fn(*args, **kwargs)
            samples.append(time.perf_counter() - t0)
        return samples[1:]

    def run_round(self, probe):
        r = Round()
        r.detail = []
        probe.calls = []
        for p in self.protocol_seeds:
            probe.reset()
            r.attempted += 1
            t0 = time.perf_counter()
            try:
                rows = self.sp.experiments.loss_kernel_table(p, starts=T2_STARTS)
            except self.sp.errors.SplitSvmError:
                r.failed += 1
                continue
            finally:
                r.run_s += time.perf_counter() - t0
            r.detail.append((p, rows, probe.captured))
        if self.calls is None:
            self.calls = probe.calls
        r.work = sum(s.iterations for _, _, caps in r.detail for c in caps for s in c["summaries"])
        r.signature = [
            (p, [(row.loss, row.kernel, row.test_accuracy, c["model"].meta.start_index,
                  [(s.iterations, s.objective) for s in c["summaries"]])
                 for row, c in zip(rows, caps)])
            for p, rows, caps in r.detail
        ]
        return r

    def check(self, r, problems):
        for p, rows, caps in r.detail:
            _, test = self.sp.data.generate_synthetic(300, 120, p)
            if len(rows) != 8 or len(caps) != 8:
                problems.append(f"t2 seed {p}: expected 8 loss/kernel rows, got {len(rows)}")
                continue
            for row, cap in zip(rows, caps):
                tag = f"t2 seed {p} {row.loss}/{row.kernel}"
                model, data = cap["model"], cap["data"]
                check_starts(tag, row.loss, cap, problems)
                check_objective(tag, row.loss, row.kernel, row.sigma, model.lam, data.X, data.y,
                                model.coeffs, model.meta.objective, problems)
                check_accuracy(tag, row.kernel, row.sigma, model.inputs, model.coeffs,
                               test.X, test.y, row.test_accuracy, problems)

    def figures(self, r):
        return {
            f"seed {p}": {
                f"{row.loss}/{row.kernel}": {
                    "iterations": [s.iterations for s in c["summaries"]],
                    "objectives": [repr(s.objective) for s in c["summaries"]],
                    "winner": c["model"].meta.start_index,
                    "test_accuracy": row.test_accuracy,
                }
                for row, c in zip(rows, caps)
            }
            for p, rows, caps in r.detail
        }


class TrainN1000:
    """``splitsvm train`` in process on the t1 protocol's N = 1000 data."""

    work_unit = "ADMM iterations"
    boundary = "splitsvm.model.initial_state"
    setup_calls = ()

    @staticmethod
    def prepare(sp, seed, workdir):
        train, test = sp.data.generate_synthetic(1000, 400, T1_ROW_SEED)
        sp.data.save_csv(train, os.path.join(workdir, "train.csv"))
        sp.data.save_csv(test, os.path.join(workdir, "test.csv"))

    def __init__(self, sp, seed, workdir):
        self.sp = sp
        self.train_path = os.path.join(workdir, "train.csv")
        self.test_path = os.path.join(workdir, "test.csv")
        self.model_path = os.path.join(workdir, "model.txt")
        self.argv = ["train", "--train", self.train_path, "--model", self.model_path,
                     *TRAIN_ARGS, "--max-iter", str(TRAIN_ITERS), "--seed", str(seed)]
        self.warnings = []

    def setup_samples(self, probe):
        """One set-up-only call, cut short where the first start begins."""
        probe.reset()
        probe.abort = True
        t0 = time.perf_counter()
        try:
            run_cli(self.sp.cli, self.argv)
        except SetupDone:
            return [probe.mark - t0]
        finally:
            probe.abort = False
        raise RuntimeError("set-up sample did not reach the first start")

    def run_round(self, probe):
        r = Round()
        probe.reset()
        r.attempted = 1
        t0 = time.perf_counter()
        rc, out, warns = run_cli(self.sp.cli, self.argv)
        t1 = time.perf_counter()
        if rc != 0 or probe.mark is None or len(probe.captured) != 1:
            r.failed = 1
            return r
        r.setup_s = probe.mark - t0
        r.run_s = t1 - probe.mark
        summaries = probe.captured[0]["summaries"]
        r.work = sum(s.iterations for s in summaries)
        r.signature = ([(s.iterations, s.objective) for s in summaries], sha256(self.model_path))
        r.detail = (probe.captured[0], out)
        self.warnings = warns
        return r

    def check(self, r, problems):
        cap, out = r.detail
        m = reference.read_model(self.model_path)
        train = np.loadtxt(self.train_path, delimiter=",", ndmin=2)
        test = np.loadtxt(self.test_path, delimiter=",", ndmin=2)
        check_starts("train-n1000", m["loss"], cap, problems)
        if not np.array_equal(m["centers"], train[:, :-1]):
            problems.append("train-n1000: model file centres are not the training points")
            return
        check_objective("train-n1000", m["loss"], m["family"], m["sigma"], m["lam"],
                        m["centers"], train[:, -1], m["coeffs"], m["objective"], problems)
        if rel_diff(m["objective"], cap["model"].meta.objective) > 0:
            problems.append("train-n1000: model file objective differs from the selected start")
        if cap["summaries"][0].iterations != TRAIN_ITERS:
            problems.append(f"train-n1000: expected {TRAIN_ITERS} iterations, "
                            f"got {cap['summaries'][0].iterations}")
        if f"selected start {cap['model'].meta.start_index}" not in out:
            problems.append("train-n1000: no 'selected start' line on stdout")
        check_accuracy("train-n1000", m["family"], m["sigma"], m["centers"], m["coeffs"],
                       test[:, :-1], test[:, -1], None, problems)

    def figures(self, r):
        cap, _ = r.detail
        return {
            "iterations": [s.iterations for s in cap["summaries"]],
            "objectives": [repr(s.objective) for s in cap["summaries"]],
            "warnings": self.warnings,
        }


class PredictN1000:
    """``splitsvm predict`` in process: an N = 1000 model over many points."""

    work_unit = "points labelled"
    boundary = "splitsvm.cli.load_features_csv"
    setup_calls = ()

    @staticmethod
    def points(seed):
        return np.random.default_rng(seed).uniform(-10.0, 10.0, (PREDICT_POINTS, 2))

    @staticmethod
    def prepare(sp, seed, workdir):
        train, _ = sp.data.generate_synthetic(1000, 400, T1_ROW_SEED)
        cfg = sp.admm.AdmmConfig(lam=0.1, rho=1.0, max_iter=PREDICT_FIT_ITERS,
                                 enforce_rho_condition="off")
        model, _ = sp.model.train_multistart(train, sp.kernels.KernelSpec("gaussian", 1.0),
                                             sp.losses.get_loss("pl2"), cfg, 1, seed)
        sp.model.save_model(model, os.path.join(workdir, "model.txt"))
        np.savetxt(os.path.join(workdir, "points.csv"), PredictN1000.points(seed),
                   fmt="%.17g", delimiter=",")

    def __init__(self, sp, seed, workdir):
        self.sp = sp
        self.seed = seed
        self.model_path = os.path.join(workdir, "model.txt")
        self.points_path = os.path.join(workdir, "points.csv")
        self.output_path = os.path.join(workdir, "labeled.csv")
        self.argv = ["predict", "--model", self.model_path, "--data", self.points_path,
                     "--output", self.output_path]

    def setup_samples(self, probe):
        return []

    def run_round(self, probe):
        r = Round()
        probe.reset()
        r.attempted = 1
        t0 = time.perf_counter()
        rc, _, _ = run_cli(self.sp.cli, self.argv)
        t1 = time.perf_counter()
        if rc != 0 or probe.mark is None:
            r.failed = 1
            return r
        r.setup_s = probe.mark - t0
        r.run_s = t1 - probe.mark
        r.work = PREDICT_POINTS
        r.signature = sha256(self.output_path)
        return r

    def check(self, r, problems):
        m = reference.read_model(self.model_path)
        out = np.loadtxt(self.output_path, delimiter=",", ndmin=2)
        points = self.points(self.seed)
        if out.shape != (PREDICT_POINTS, 3) or not np.array_equal(out[:, :2], points):
            problems.append("predict-n1000: output rows do not reproduce the input points")
            return
        dv, scale = reference.decision_values(m["family"], m["sigma"], m["centers"],
                                              m["coeffs"], points)
        decided = np.abs(dv) > TIE_RTOL * scale
        wrong = int(np.sum((out[:, 2] != reference.labels(dv)) & decided))
        if wrong:
            problems.append(f"predict-n1000: {wrong} labels differ from sign(s(x))")
        self.positives = int(np.sum(out[:, 2] > 0))
        self.exempt = int(np.sum(~decided))

    def figures(self, r):
        return {"output_sha256": r.signature, "positives": self.positives,
                "exempt_near_zero": self.exempt}


WORKLOADS = {"t2": T2, "train-n1000": TrainN1000, "predict-n1000": PredictN1000}


def blas_info(requested):
    """Thread count and version of every OpenBLAS library this process loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_config.restype = ctypes.c_char_p
                found.append({"library": os.path.basename(path), "threads": int(get_threads()),
                              "config": get_config().decode()})
                break
    if not found or any(b["threads"] != requested for b in found):
        raise RuntimeError(f"BLAS threads are not pinned to {requested}: {found}")
    return found


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as fh:
        fields = [int(v) for v in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def environment(requested_threads):
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": requested_threads,
        "blas": blas_info(requested_threads),
    }


def measure(wl, probe, seconds):
    """Whole rounds until the next one would end after ``seconds``; at least one."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(wl.run_round(probe))
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return rounds


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--blas-threads", type=int, required=True)
    ap.add_argument("--prepare", action="store_true",
                    help="write the workload's input files and exit")
    args = ap.parse_args()

    import splitsvm
    import splitsvm.admm
    import splitsvm.cli
    import splitsvm.data
    import splitsvm.errors
    import splitsvm.experiments
    import splitsvm.kernels
    import splitsvm.losses
    import splitsvm.model

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(splitsvm.__file__), src]) != src:
        raise RuntimeError(f"splitsvm was imported from {splitsvm.__file__}, not from {src}")
    workdir = os.path.join(OUT, args.workload)
    os.makedirs(workdir, exist_ok=True)
    if args.prepare:
        WORKLOADS[args.workload].prepare(splitsvm, args.seed, workdir)
        return
    env = environment(args.blas_threads)
    print("env " + json.dumps(env, sort_keys=True))
    steal0, total0 = cpu_ticks()

    wl = WORKLOADS[args.workload](splitsvm, args.seed, workdir)
    probe = Probe(sys.modules, wl.boundary, wl.setup_calls)
    setup = []

    if args.trace:
        # Untraced and traced rounds alternate, so both see the same machine.
        recorder = spans.Recorder(sys.modules)
        untraced, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            untraced.append(wl.run_round(probe))
            recorder.install()
            try:
                traced.append(wl.run_round(probe))
            finally:
                recorder.remove()
            took = time.perf_counter() - t0
            if time.perf_counter() - start + took > args.seconds:
                break
        rounds = untraced + traced
    else:
        # Set-up is sampled before and after the rounds, so that one slow
        # spell on the machine cannot decide the median.
        setup += wl.setup_samples(probe)
        rounds = measure(wl, probe, args.seconds)
        setup += wl.setup_samples(probe)
    setup += [r.setup_s for r in rounds if r.setup_s is not None]
    # Read before the checks: their reference arithmetic is not the program's.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    ok = [r for r in rounds if not r.failed]
    problems = []
    if ok:
        wl.check(ok[0], problems)
        if any(r.signature != ok[0].signature for r in ok):
            problems.append("rounds differ in iteration counts, objectives or output bytes")
    for p in problems:
        print("CHECK FAILED: " + p)
    if not ok:
        sys.exit(f"no round completed: {attempted} operations attempted, {failed} failed")

    print(f"rounds {len(rounds)}, operations attempted {attempted}, failed {failed}, "
          f"work unit: {wl.work_unit}")
    print("round run_s " + " ".join(f"{r.run_s:.4f}" for r in rounds))
    figures = wl.figures(ok[0])
    print("figures " + json.dumps(figures, sort_keys=True))

    if args.trace:
        base = median_run_s(untraced)
        traced_run = median_run_s(traced)
        per_layer, ratios = spans.layer_metrics(recorder.spans, len(traced))
        per_layer["trace.overhead_s"] = traced_run - base
        per_layer["trace.overhead_share"] = (traced_run - base) / base
        per_layer["trace.spans"] = len(recorder.spans) / len(traced)
        per_layer["trace.span_cost_s"] = spans.span_cost()
        # One pair of rounds can differ by more than the tracer costs, so the
        # cost is also estimated from the span count.
        per_layer["trace.overhead_est_s"] = per_layer["trace.spans"] * per_layer["trace.span_cost_s"]
        for name, (value, base_text) in ratios.items():
            per_layer[name] = value
            print(f"{name} = {value:.6g} (base: {base_text})")
        if recorder.missing:
            print("hooks not found (those layers read 0): " + ", ".join(recorder.missing))
        print(f"traced run_s {traced_run:.6f} s, untraced run_s {base:.6f} s")
        recorder.write(os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        metrics = declared_metrics("per_layer", per_layer)
    else:
        metrics = declared_metrics("end_to_end", {
            "setup_s": statistics.median(setup),
            "run_s": median_run_s(rounds),
            "work_per_s": statistics.median(r.work / r.run_s for r in ok),
            "peak_rss_mb": peak_rss_mb,
        })
        print(f"set-up samples {len(setup)}, run_s samples {len(ok)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave to other guests, as a share of all CPU time.
    env["steal_share"] = (steal1 - steal0) / max(total1 - total0, 1)
    print(f"steal_share {env['steal_share']:.4f} (base: {total1 - total0} jiffies on all CPUs)")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "figures": figures}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))


def median_run_s(rounds):
    return statistics.median(r.run_s for r in rounds if not r.failed)


def declared_metrics(kind, values):
    """Values with the units BENCHMARK.json declares; the names must match it."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"{kind} metrics {sorted(set(values) ^ set(units))} "
                           "are not both measured and declared in BENCHMARK.json")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


if __name__ == "__main__":
    main()
