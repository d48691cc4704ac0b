"""Whole-run golden: a seed-0 CLI pipeline and the two sweep tables must keep
their exact bytes. There is one digest per command. For the pipeline it
covers the name and bytes of every file the command writes, except
`meta.json` (wall times), and its stdout with the run root written as
`<root>`; for a sweep it covers `sweep.csv`.

The pipeline and `grids/hyperparameters.json` digests were recorded before
the ablation became a `mode` sweep. The `grids/ablation.json` digest was
recorded after, once its `test_acc` column had matched the `test_micro`
column of the old `ablation.csv` bit for bit. The `train-source`, `adapt`
and `adapt-naive_pl` digests were re-recorded when the optimizer and batch
sizes left the run config for a fixed recipe: their `resolved_config.txt`,
the `config` of `summary.json` and the printed summary each lost the keys
`eta_0`, `eta_1`, `momentum`, `weight_decay`, `batch_size_l` and
`batch_size_u`, and every other file stayed byte-identical.

`python tests/test_run_golden.py` prints the current digests, then per
command the sha256 of its stdout and of every file it covers, so two trees'
listings diff to the files that moved."""

import contextlib
import hashlib
import io
import os
import tempfile

from dmapl.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

GOLDEN_SHA256 = {
    "gen-data": "d67d56621f69475a68eca4a7e69d67d061c27c6ec11166e48190970e68baeee3",
    "train-source": "4550ee30d4c41cac905527391e5465e6b98a00c32ca720ef5540d17ae185f1e4",
    "adapt": "086928632b22a471dc90aa2af058687a967ff3bb5ab4b114080f719b9cc8a6f0",
    "adapt-naive_pl": "8c3d4717165b3d169b948bb2526daf5a4233bccc0807096b16eeb648fdf7b441",
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


def run_outputs(root: str) -> dict[str, tuple[str, list[str]]]:
    """Run every command under `root`; per command, the stdout its digest
    covers and one `<file> <sha256>` line per file it covers."""
    outputs = {}
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
        lines = []
        for rel in files:
            with open(os.path.join(out, rel), "rb") as fh:
                lines.append(f"{rel} {hashlib.sha256(fh.read()).hexdigest()}\n")
        outputs[name] = text, lines
    return outputs


def run_digests(root: str) -> dict[str, str]:
    return {name: hashlib.sha256((text + "".join(lines)).encode()).hexdigest()
            for name, (text, lines) in run_outputs(root).items()}


def test_whole_run_matches_golden_digests(tmp_path):
    assert run_digests(str(tmp_path)) == GOLDEN_SHA256


if __name__ == "__main__":
    # the digests, then per command the sha256 of its stdout and of each file,
    # so two trees' listings can be diffed to see which files moved
    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_outputs(tmp)
    for name, (text, lines) in outputs.items():
        digest = hashlib.sha256((text + "".join(lines)).encode()).hexdigest()
        print(f'    "{name}": "{digest}",')
    for name, (text, lines) in outputs.items():
        print(f"{name} <stdout> {hashlib.sha256(text.encode()).hexdigest()}")
        for line in lines:
            print(f"{name} {line}", end="")
