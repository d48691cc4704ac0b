import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_sweep_script(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable,
                           os.path.join(ROOT, "scripts", "run_hyperparameter_sweep.py"),
                           *map(str, args)], capture_output=True, text=True, env=env)


def test_hyperparameter_sweep_script_writes_its_three_tables(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "sweeps"
    run_sweep_script("--spec", spec, "--seeds", "0", "--out", out).check_returncode()
    for name, keys, n_cells in (("p_th_sweep.csv", ["p_th"], 4),
                                ("alpha_beta_sweep.csv", ["alpha", "beta"], 9),
                                ("lambda_sweep.csv", ["lambda"], 3)):
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_cells
        assert list(rows[0]) == keys + ["seed", "ratio", "pl_acc", "test_acc", "error"]
        assert all(row["seed"] == "0" and row["error"] == "" for row in rows)
        assert all(0.0 <= float(row["test_acc"]) <= 1.0 for row in rows)


@pytest.mark.parametrize("seeds", [",", "x"])
def test_hyperparameter_sweep_script_rejects_bad_seeds(seeds, tmp_path):
    out = tmp_path / "sweeps"
    done = run_sweep_script("--seeds", seeds, "--out", out)
    assert done.returncode == 1
    assert done.stderr == f"error: bad --seeds value {seeds!r}; expected e.g. 0,1,2\n"
    assert not out.exists()


def test_hyperparameter_sweep_script_rejects_zero_jobs(tmp_path):
    out = tmp_path / "sweeps"
    done = run_sweep_script("--jobs", 0, "--out", out)
    assert done.returncode == 1
    assert done.stderr == "error: jobs must be >= 1, got 0\n"
    assert not out.exists()
