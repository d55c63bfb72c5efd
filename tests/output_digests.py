"""The sha256 of every file in the usual set of ``isobath run`` outputs.

Runs ``isobath run`` on ``configs/default.json`` with OpenBLAS, OpenMP
and MKL pinned to one thread, over 57 output files in all:

- ``terminal``: the terminal variant, horizon 3, 20 steps, seeds 0-1;
- ``plain``: the plain variant, horizon 10, 20 steps, seeds 0-1;
- ``lawnmower``: the lawnmower variant, 100 steps, seeds 0-1;
- ``default``: the default config as it stands (the 100-step terminal
  mission), seed 0;
- ``compare``: ``isobath run --compare`` at 20 steps, seeds 0-1, whose
  one file is ``comparison.json``.

It prints one ``sha256  path`` line per file, sorted by path, so that
two commits write byte-identical outputs exactly when the output of one
``diff``s empty against the other's:

    PYTHONPATH=src python tests/output_digests.py > before.txt
    (check out the other commit)
    PYTHONPATH=src python tests/output_digests.py > after.txt
    diff before.txt after.txt

or in one command, with ``--against before.txt``, which prints each path
whose digest moved, appeared or vanished, and exits 1 if any did.

The package is run from the ``src/`` beside this script. The runs go to
a temporary directory that is removed afterwards, or with ``--out DIR``
to DIR, which is kept and must not exist or be empty, so that no file
of an earlier run is hashed. The whole set takes about 30 s on two
cores, most of it the 100-step terminal mission.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# directory -> (seeds, config overrides, further ``isobath run`` flags)
RUNS = {
    "terminal": ("0,1", {"VARIANT": "terminal", "HORIZON": "3", "TOTAL_LENGTH": "20"}, ()),
    "plain": ("0,1", {"VARIANT": "plain", "HORIZON": "10", "TOTAL_LENGTH": "20"}, ()),
    "lawnmower": ("0,1", {"VARIANT": "lawnmower", "TOTAL_LENGTH": "100"}, ()),
    "default": ("0", {}, ()),
    "compare": ("0,1", {"TOTAL_LENGTH": "20"}, ("--compare",)),
}
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_all(out: Path) -> None:
    """Write every run of ``RUNS`` under ``out``, one directory each."""
    base = {k: v for k, v in os.environ.items() if not k.startswith("ISOBATH_")}
    base.update(PINNED, PYTHONPATH=str(ROOT / "src"))
    for name, (seeds, overrides, flags) in RUNS.items():
        env = dict(base, **{f"ISOBATH_{k}": v for k, v in overrides.items()})
        subprocess.run(
            [
                sys.executable, "-m", "isobath.cli", "run",
                "--config", str(ROOT / "configs" / "default.json"),
                "--seeds", seeds, "--out", str(out / name), *flags,
            ],
            env=env, check=True, stdout=subprocess.DEVNULL,
        )


def digests(out: Path) -> list[str]:
    """``sha256  path`` of every file under ``out``, by relative path."""
    return [
        f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
        for path in sorted(p for p in out.rglob("*") if p.is_file())
    ]


def changes(before: list[str], after: list[str]) -> list[str]:
    """``moved``, ``new`` or ``gone``, and the path, of every file whose
    ``sha256  path`` line differs between the two lists, by path."""
    def by_path(lines):
        return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}

    old, new = by_path(before), by_path(after)
    return [
        f"{'new' if path not in old else 'gone' if path not in new else 'moved'}  {path}"
        for path in sorted(old.keys() | new.keys())
        if old.get(path) != new.get(path)
    ]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="keep the runs in this directory")
    parser.add_argument(
        "--against", type=Path,
        help="a file this script printed: list what changed, exit 1 if anything did",
    )
    args = parser.parse_args(argv)
    if args.out is not None and args.out.exists() and any(args.out.iterdir()):
        parser.error(f"--out {args.out} is not empty")
    before = args.against.read_text().splitlines() if args.against else None
    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        run_all(out)
        after = digests(out)
    if before is None:
        print("\n".join(after))
        return 0
    changed = changes(before, after)
    print("\n".join([*changed, f"{len(after)} files, {len(changed)} changed"]))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
