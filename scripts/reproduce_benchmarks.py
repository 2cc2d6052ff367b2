#!/usr/bin/env python3
"""Drive the full citation-network benchmark suite once raw data is present.

Expects the classic raw files under $GRAFN_DATA_DIR/raw/:
    raw/cora.content, raw/cora.cites
    raw/citeseer.content, raw/citeseer.cites

Converts them to the neutral format, then runs one 20-split ablation sweep
per dataset, whose `full` row is the benchmark, and similarity search and
the degree report on split 0, writing everything under results/<name>/.
"""

import argparse
import os
import subprocess
import sys

BENCHES = [
    # dataset, config, label_rate
    ("cora", "configs/cora.cfg", 0.005),
    ("citeseer", "configs/citeseer.cfg", 0.01),
]


def sh(args):
    print("+", " ".join(args), flush=True)
    proc = subprocess.run([sys.executable, "-m", "grafn.cli", *args])
    if proc.returncode != 0:
        sys.exit(proc.returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-root", default=os.environ.get("GRAFN_DATA_DIR", "data"))
    parser.add_argument("--out", default="results")
    parser.add_argument("--splits", type=int, default=20)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()

    for name, config, rate in BENCHES:
        raw_content = os.path.join(args.data_root, "raw", f"{name}.content")
        raw_cites = os.path.join(args.data_root, "raw", f"{name}.cites")
        ds_dir = os.path.join(args.data_root, name)
        if not os.path.isdir(ds_dir):
            if not os.path.isfile(raw_content):
                print(f"skipping {name}: no converted dataset at {ds_dir} "
                      f"and no raw files under {args.data_root}/raw/")
                continue
            sh(["convert", raw_content, raw_cites, ds_dir])

        out = os.path.join(args.out, name)
        sh(["ablate", ds_dir, "--rate", str(rate), "--n", str(args.splits),
            "--bench-seed", str(args.seed), "--jobs", str(args.jobs),
            "--config", config, "--out", os.path.join(out, "ablation.json")])
        sh(["split", ds_dir, "--rate", str(rate), "--n", "1",
            "--seed", str(args.seed), "--out", os.path.join(out, "splits")])
        # refits the full config on split 0 to get a checkpoint
        sh(["train", ds_dir, os.path.join(out, "splits", "split_000.json"),
            "--config", config, "--out", os.path.join(out, "run0")])
        # both read the training config from run0/run.json
        sh(["simsearch", os.path.join(out, "run0", "checkpoint.bin"), ds_dir,
            "--k", "5", "--k", "10", "--out", os.path.join(out, "simsearch.json")])
        sh(["degree-report", os.path.join(out, "run0", "checkpoint.bin"), ds_dir,
            os.path.join(out, "splits", "split_000.json"),
            "--out", os.path.join(out, "degree.json")])


if __name__ == "__main__":
    main()
