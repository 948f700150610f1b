import pytest

from splitsvm.errors import InputError
from splitsvm.experiments import (
    LOSS_ORDER,
    TableRow,
    convergence_trace,
    loss_kernel_table,
    rows_to_csv,
    rows_to_markdown,
    size_scaling_table,
)


def make_row(**over):
    base = dict(
        loss="hinge",
        kernel="gaussian",
        sigma=2.0,
        n_train=300,
        n_test=120,
        train_accuracy=0.9251,
        test_accuracy=0.8833,
        iterations=140,
        converged=True,
        seconds=3.25,
    )
    base.update(over)
    return TableRow(**base)


def test_loss_order_covers_all_losses():
    assert LOSS_ORDER == ("hinge", "pl2", "tlog", "ramp")


def test_rows_to_csv_without_seconds():
    text = rows_to_csv([make_row()], include_seconds=False)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "loss,kernel,sigma,n_train,n_test,train_accuracy,"
        "test_accuracy,iterations,converged"
    )
    assert lines[1].startswith("hinge,gaussian,2,300,120,")
    assert "seconds" not in lines[0]
    assert lines[1].endswith(",1")
    # accuracies round-trip exactly
    assert float(lines[1].split(",")[5]) == 0.9251


def test_rows_to_csv_with_seconds():
    text = rows_to_csv([make_row()], include_seconds=True)
    lines = text.strip().split("\n")
    assert lines[0].endswith(",seconds")
    assert lines[1].endswith(",3.250000")


def test_rows_to_markdown_shape():
    text = rows_to_markdown([make_row(), make_row(loss="ramp", converged=False)],
                            include_seconds=True)
    lines = text.strip().split("\n")
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("| loss | kernel |")
    assert "92.5%" in lines[2]
    assert "88.3%" in lines[2]


def test_size_scaling_rejects_impossible_split():
    with pytest.raises(InputError):
        size_scaling_table(0, sizes=(101,))


def test_convergence_trace_smoke():
    # The full protocol: one record an iteration, and a certificate.
    run, certificate = convergence_trace(seed=0)
    assert run.status == "converged"
    assert len(run.trace) == run.state.k
    recs = run.trace.records
    assert [r.k for r in recs] == list(range(1, run.state.k + 1))
    assert all(r.step_norm_H >= 0.0 for r in recs)
    assert 0.0 <= certificate <= 1e-6


def test_loss_kernel_table_structure_tiny():
    rows = loss_kernel_table(seed=1, starts=1)
    assert len(rows) == 8
    assert [r.loss for r in rows[:4]] == list(LOSS_ORDER)
    assert {r.kernel for r in rows[:4]} == {"gaussian"}
    assert {r.kernel for r in rows[4:]} == {"matern1"}
    assert rows[0].sigma == 2.0 and rows[4].sigma == 1.0
    for r in rows:
        assert r.n_train == 300 and r.n_test == 120
        assert 0.0 <= r.train_accuracy <= 1.0
        assert 0.0 <= r.test_accuracy <= 1.0


def test_loss_kernel_table_inverts_once_per_kernel(monkeypatch):
    # The four losses of a kernel share its inverse of 2 lam I + rho A.
    import splitsvm.experiments as experiments_mod
    import splitsvm.model as model_mod

    calls = []
    real = experiments_mod.c_inverse
    monkeypatch.setattr(experiments_mod, "c_inverse",
                        lambda A, cfg: calls.append(A.size) or real(A, cfg))
    monkeypatch.setattr(model_mod, "c_inverse", None)
    assert len(loss_kernel_table(seed=1, starts=1)) == 8
    assert calls == [300, 300]


def test_size_scaling_structure_tiny():
    rows = size_scaling_table(seed=2, sizes=(20, 30))
    assert [r.n_train for r in rows] == [20, 30]
    assert [r.n_test for r in rows] == [8, 12]
    assert all(r.loss == "pl2" for r in rows)
    assert all(r.seconds >= 0.0 for r in rows)
