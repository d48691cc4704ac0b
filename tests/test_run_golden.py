"""Whole-run golden: a seed-0 CLI pipeline and the two sweep tables must keep
their exact bytes. There is one digest per command. For the pipeline it
covers the name and bytes of every file the command writes, except
`meta.json` (wall times), and its stdout with the run root written as
`<root>`; for a sweep it covers `sweep.csv`.

The pipeline and `grids/hyperparameters.json` digests were recorded before
the ablation became a `mode` sweep. The `grids/ablation.json` digest was
recorded after, once its `test_acc` column had matched the `test_micro`
column of the old `ablation.csv` bit for bit.

`python tests/test_run_golden.py` prints the current digests."""

import contextlib
import hashlib
import io
import os
import tempfile

from dmapl.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_SHA256 = {
    "gen-data": "d67d56621f69475a68eca4a7e69d67d061c27c6ec11166e48190970e68baeee3",
    "train-source": "5f1a9008121e90e71115d7dd403db754ec9fc77b4d5c1ffa1733db01d40db677",
    "adapt": "37a5186beae3906f30cb2db703b971f5b1c8605f98414bbe7a93fb7d2eff5e1b",
    "adapt-naive_pl": "741156f6b3b31bbad8892462a266f3d39feda0561ddf2b97656d7210d14eecaf",
    "eval": "97591940bc10d049a6ca6b9de7735ed584935846a9690113fc28548d1471460f",
    "eval-naive_pl": "8e4959167aed09ede560ae7cccafe2b0259843740e98cc0ba591f4733ff66d11",
    "sweep-hyperparameters": "c2bf5279934ed86d4413f7007c63d30669dc9308f7797378c7d2f49284919d36",
    "sweep-ablation": "3de63e9e0d66afd2ed6c541a8a7f69a06495fb251710b83df57922b4c72e7f29",
}


def _commands(root: str) -> dict[str, list[str]]:
    spec = os.path.join(root, "spec.txt")
    with open(spec, "w") as fh:
        fh.write("samples_per_class = 60\n")
    data = {name: os.path.join(root, "gen-data", name + ".csv")
            for name in ("source_train", "source_val", "target_train",
                         "target_train_groundtruth", "target_test")}
    adapt = ["adapt", "--source-model", os.path.join(root, "train-source", "source_model.txt"),
             "--target-train", data["target_train"], "--seed", "0"]
    return {
        "gen-data": ["gen-data", "--spec", spec, "--seed", "0"],
        "train-source": ["train-source", "--train", data["source_train"],
                         "--val", data["source_val"], "--seed", "0"],
        "adapt": [*adapt, "--target-test", data["target_test"],
                  "--ground-truth", data["target_train_groundtruth"], "--snapshot-soft-labels"],
        "adapt-naive_pl": [*adapt, "--mode", "naive_pl"],
        "eval": ["eval", "--model", os.path.join(root, "adapt", "adapted_model.txt"),
                 "--test", data["target_test"]],
        "eval-naive_pl": ["eval", "--model", os.path.join(root, "adapt-naive_pl",
                                                          "adapted_model.txt"),
                          "--test", data["target_test"]],
        "sweep-hyperparameters": ["sweep", "--grid", os.path.join(ROOT, "grids",
                                                                  "hyperparameters.json"),
                                  "--spec", spec, "--seeds", "0"],
        "sweep-ablation": ["sweep", "--grid", os.path.join(ROOT, "grids", "ablation.json"),
                           "--spec", spec, "--seeds", "0,1"],
    }


def run_digests(root: str) -> dict[str, str]:
    digests = {}
    for name, argv in _commands(root).items():
        out = os.path.join(root, name)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--out", out]) == 0, name
        if name.startswith("sweep"):
            text, files = "", ["sweep.csv"]
        else:
            text = stdout.getvalue().replace(root, "<root>")
            files = sorted(os.path.relpath(os.path.join(d, f), out)
                           for d, _, names in os.walk(out) for f in names if f != "meta.json")
        h = hashlib.sha256(text.encode())
        for rel in files:
            with open(os.path.join(out, rel), "rb") as fh:
                h.update(f"{rel} {hashlib.sha256(fh.read()).hexdigest()}\n".encode())
        digests[name] = h.hexdigest()
    return digests


def test_whole_run_matches_golden_digests(tmp_path):
    assert run_digests(str(tmp_path)) == GOLDEN_SHA256


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in run_digests(tmp).items():
            print(f'    "{key}": "{digest}",')
