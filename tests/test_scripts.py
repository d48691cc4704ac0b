import csv
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_hyperparameter_sweep_script_writes_its_three_tables(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("samples_per_class = 60\n")
    out = tmp_path / "sweeps"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_hyperparameter_sweep.py"),
                    "--spec", str(spec), "--seeds", "0", "--out", str(out)],
                   check=True, capture_output=True, env=env)
    for name, keys, n_cells in (("p_th_sweep.csv", ["p_th"], 4),
                                ("alpha_beta_sweep.csv", ["alpha", "beta"], 9),
                                ("lambda_sweep.csv", ["lambda"], 3)):
        with open(out / name, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n_cells
        assert list(rows[0]) == keys + ["seed", "ratio", "pl_acc", "test_acc", "error"]
        assert all(row["seed"] == "0" and row["error"] == "" for row in rows)
        assert all(0.0 <= float(row["test_acc"]) <= 1.0 for row in rows)
