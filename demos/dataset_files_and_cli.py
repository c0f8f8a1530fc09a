"""
Dataset files and the command line
==================================

Writes a synthetic wafer to disk in both on-disk formats, reads it back,
then drives the same flow through the CLI entry point.
"""

import pathlib
import tempfile

from jjwafer import WaferSpec, generate_wafer, load_dataset, save_dataset
from jjwafer.cli import main
from jjwafer.dataset import ground_truth

work = pathlib.Path(tempfile.mkdtemp(prefix="jjwafer-demo-"))

ds = generate_wafer(WaferSpec(label="file-demo", seed=21,
                              cap_noise_pct=2.0, iv_noise_pct=1.0)).dataset
txt = work / "wafer.jjw"
jsn = work / "wafer.json"
save_dataset(ds, txt)
save_dataset(ds, jsn, fmt="json")
print("text file:", txt, f"({txt.stat().st_size:,} bytes)")
print("json file:", jsn, f"({jsn.stat().st_size:,} bytes)")

back = load_dataset(txt)  # format sniffed from content, not the suffix
print("round trip exact:", back == ds)
print("carries ground truth:", ground_truth(back) is not None)

with txt.open() as fh:
    for _ in range(6):
        line = fh.readline().rstrip()
        print("   |", line if len(line) <= 88 else line[:85] + "...")

# Same work through the CLI: simulate writes a dataset, analyze prints the
# findings, report drops <stem>.report.txt/.json plus one grid per area.
print("\n$ jjwafer simulate --preset etch20 --seed 5 --out", work / "w.jjw")
main(["simulate", "--preset", "etch20", "--seed", "5", "--out", str(work / "w.jjw")])
print("\n$ jjwafer analyze cap", work / "w.jjw")
main(["analyze", "cap", str(work / "w.jjw")])
print("\n$ jjwafer report", work / "w.jjw", "--out", work)
main(["report", str(work / "w.jjw"), "--out", str(work)])
print("\nwrote:", *sorted(p.name for p in work.glob("w.*")), sep="\n  ")
