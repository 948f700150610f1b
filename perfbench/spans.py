"""Spans around the calls into each splitsvm module's public functions.

The package's modules import each other's functions by name (``from .linalg
import cg_solve``), so a function is hooked by replacing the attribute under
which its caller looks it up, e.g. ``splitsvm.admm.cg_solve`` and
``splitsvm.kernels.cg_solve`` for the conjugate-gradient solver.  The hooks
are installed only around traced rounds; untraced rounds run the package's
own functions.

A span is (name, start, end, parent).  Spans stay in memory and are written
once, when the run ends.  A span's self time is its duration minus the
durations of its direct children.
"""

import json
import time

#: (span name, module attributes the callers look the function up by).
HOOKS = (
    ("data.load_csv", ("splitsvm.cli.load_csv",)),
    ("data.load_features_csv", ("splitsvm.cli.load_features_csv",)),
    ("data.save_labeled_features", ("splitsvm.cli.save_labeled_features",)),
    ("data.generate_synthetic", ("splitsvm.experiments.generate_synthetic",)),
    ("kernels.gram", ("splitsvm.cli.gram", "splitsvm.experiments.gram", "splitsvm.model.gram")),
    ("kernels.min_eigenvalue", ("splitsvm.cli.min_eigenvalue", "splitsvm.model.min_eigenvalue")),
    ("kernels.cross_gram", ("splitsvm.model.cross_gram",)),
    ("linalg.cg_solve", ("splitsvm.admm.cg_solve", "splitsvm.kernels.cg_solve")),
    ("losses.prox_vector", ("splitsvm.admm.prox_vector",)),
    ("admm.initial_state", ("splitsvm.model.initial_state",)),
    ("admm.admm_run", ("splitsvm.model.admm_run",)),
    ("admm.admm_step", ("splitsvm.admm.admm_step",)),
    ("model.train_multistart", ("splitsvm.cli.train_multistart", "splitsvm.experiments.train_multistart")),
    ("model.save_model", ("splitsvm.cli.save_model",)),
    ("model.load_model", ("splitsvm.cli.load_model",)),
    ("model.predict_labels", ("splitsvm.cli.predict_labels", "splitsvm.experiments.predict_labels")),
)

LOSS_NAMES = ("hinge", "pl2", "tlog", "ramp")


def _note(name, args, result, failed):
    """Counts recorded with a span, read from the call's arguments and result."""
    if name == "losses.prox_vector":
        return {"loss": args[0].name}
    if name == "linalg.cg_solve" and not failed:
        return {"iters": result.iters, "converged": bool(result.converged)}
    if name == "kernels.min_eigenvalue":
        return {"verified": not failed}
    if name == "model.train_multistart" and not failed:
        summaries = result[1]
        return {"starts": len(summaries), "converged": sum(bool(s.converged) for s in summaries)}
    return None


def patch(modules, dotted, replacement):
    """Set ``module.attr`` and return the previous value (None if absent)."""
    mod_name, attr = dotted.rsplit(".", 1)
    mod = modules.get(mod_name)
    old = getattr(mod, attr, None)
    if old is not None:
        setattr(mod, attr, replacement(old))
    return old


class Recorder:
    """Collects spans while installed; restores every hooked name on removal."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []  # [name, start, end, parent, note]
        self._stack = []
        self._saved = []
        self.missing = []

    def span(self, name, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
        spans.append(rec)
        stack.append(idx)
        failed = True
        result = None
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
            rec[4] = _note(name, args, result, failed)

    def _wrapper(self, name):
        def wrap(fn):
            def traced(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

            traced.__wrapped__ = fn
            return traced

        return wrap

    def install(self):
        for name, sites in HOOKS:
            for dotted in sites:
                old = patch(self.modules, dotted, self._wrapper(name))
                if old is None:
                    if dotted not in self.missing:
                        self.missing.append(dotted)
                else:
                    self._saved.append((dotted, old))

    def remove(self):
        while self._saved:
            dotted, old = self._saved.pop()
            patch(self.modules, dotted, lambda _current: old)

    def write(self, path):
        """One JSON array per span: name, start, end, parent index, note."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def span_cost(calls=20000, repeats=5):
    """Seconds one span adds to a call: the tracer's cost, free of machine noise.

    Times ``calls`` calls of a no-op through a hook against the bare no-op,
    ``repeats`` times, and takes the median.
    """
    rec = Recorder({})

    def noop():
        return None

    hooked = rec._wrapper("calibration")(noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            hooked()
        t2 = time.perf_counter()
        rec.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return sorted(costs)[repeats // 2]


def layer_metrics(spans, rounds):
    """Per-layer self times, counts and ratios, per traced round."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    total, self_time, calls = {}, {}, {}
    cg_iters = cg_unconverged = cg_iters_in_admm = 0
    prox_by_loss = dict.fromkeys(LOSS_NAMES, 0.0)
    eig_verified = starts = starts_converged = 0
    for i, (name, _, _, parent, note) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        self_time[name] = self_time.get(name, 0.0) + dur[i] - child[i]
        calls[name] = calls.get(name, 0) + 1
        if note is None:
            continue
        if name == "linalg.cg_solve":
            cg_iters += note["iters"]
            cg_unconverged += not note["converged"]
            if parent >= 0 and spans[parent][0] == "admm.admm_step":
                cg_iters_in_admm += note["iters"]
        elif name == "losses.prox_vector":
            prox_by_loss[note["loss"]] = prox_by_loss.get(note["loss"], 0.0) + dur[i]
        elif name == "kernels.min_eigenvalue":
            eig_verified += note["verified"]
        elif name == "model.train_multistart":
            starts += note["starts"]
            starts_converged += note["converged"]

    def share(num, base):
        return num / base if base else 0.0

    iterations = calls.get("admm.admm_step", 0)
    raw = {
        "kernels.gram_s": total.get("kernels.gram", 0.0),
        "kernels.min_eigenvalue_s": total.get("kernels.min_eigenvalue", 0.0),
        "kernels.min_eigenvalue_calls": calls.get("kernels.min_eigenvalue", 0),
        "kernels.min_eigenvalue_verified": eig_verified,
        "kernels.cross_gram_s": total.get("kernels.cross_gram", 0.0),
        "losses.prox_vector_s": total.get("losses.prox_vector", 0.0),
        "losses.prox_vector_calls": calls.get("losses.prox_vector", 0),
        "linalg.cg_solve_s": total.get("linalg.cg_solve", 0.0),
        "linalg.cg_solve_calls": calls.get("linalg.cg_solve", 0),
        "linalg.cg_iters": cg_iters,
        "linalg.cg_unconverged": cg_unconverged,
        "admm.admm_step_s": total.get("admm.admm_step", 0.0),
        "admm.admm_step_self_s": self_time.get("admm.admm_step", 0.0),
        "admm.iterations": iterations,
        "admm.admm_run_self_s": self_time.get("admm.admm_run", 0.0),
        "model.train_multistart_self_s": self_time.get("model.train_multistart", 0.0),
        "model.starts": starts,
        "model.starts_converged": starts_converged,
        "model.load_model_s": total.get("model.load_model", 0.0),
        "model.predict_labels_self_s": self_time.get("model.predict_labels", 0.0),
        "model.save_model_s": total.get("model.save_model", 0.0),
        "data.load_csv_s": total.get("data.load_csv", 0.0),
        "data.load_features_csv_s": total.get("data.load_features_csv", 0.0),
        "data.save_labeled_features_s": total.get("data.save_labeled_features", 0.0),
    }
    for loss in LOSS_NAMES:
        raw[f"losses.prox_vector_s.{loss}"] = prox_by_loss[loss]
    out = {name: value / rounds for name, value in raw.items()}
    # Ratios are per-run, not per-round; the base of each is printed beside it.
    ratios = {
        "linalg.cg_iters_per_admm_iter": (share(cg_iters_in_admm, iterations), f"{iterations} ADMM iterations"),
        "linalg.cg_unconverged_per_solve": (share(cg_unconverged, calls.get("linalg.cg_solve", 0)), f"{calls.get('linalg.cg_solve', 0)} CG solves"),
        "model.starts_converged_share": (share(starts_converged, starts), f"{starts} starts"),
        "kernels.min_eigenvalue_verified_share": (share(eig_verified, calls.get("kernels.min_eigenvalue", 0)), f"{calls.get('kernels.min_eigenvalue', 0)} rho checks"),
    }
    return out, ratios
