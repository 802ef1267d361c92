"""Per-column moves between two output trees that ``output_digest.py --keep`` wrote.

Run from anywhere in a checkout:

    python3 tools/output_moves.py A B

For every file under A or B it prints one or more lines, keyed by the file's
path relative to the tree.  A file whose bytes agree (the lines that differ
between identical runs left out, as in the digest) prints ``identical``.
Otherwise each column of a ``diagnostics.csv`` or ``sweep.csv``, and each
numeric key of a ``report.txt``, prints ``<column> abs <a> rel <r>``: the
largest absolute difference and the largest relative one, |a - b| over
max(|a|, |b|) (0 where both are 0).  A ``.hkel`` snapshot prints such a line
for its ``time`` and one for its ``field``, every component's values
together.  A report key that is not numeric prints ``differs`` when its
values do, and so does a field whose shape does not match, a snapshot that
does not read as one, and any other file.  A file or a column on one side
only prints ``only in A`` or ``only in B``.  The exit status is 0 when every
file is identical and 1 when any file moved, so a byte-identity check is one
exit status.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from hkel.snapshots import read_snapshot  # noqa: E402

TABLES = ("diagnostics.csv", "sweep.csv")


def load_digest():
    loader = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).resolve().parent / "output_digest.py")
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


def largest_moves(a, b):
    """(largest |a - b|, largest |a - b| / max(|a|, |b|)) over equal-shaped arrays."""
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return float(diff.max(initial=0.0)), float(rel.max(initial=0.0))


def table_columns(text):
    """{column: float array} of a CSV with one header line."""
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    return {name: np.array([float(row[j]) for row in rows])
            for j, name in enumerate(lines[0].split(","))}


def report_keys(text):
    """{key: float array or string} of ``key = value`` lines; numeric if every word is."""
    out = {}
    for line in text.splitlines():
        if " = " in line:
            key, value = line.split(" = ", 1)
            try:
                out[key] = np.array([float(word) for word in value.split()])
            except ValueError:
                out[key] = value
    return out


def snapshot_columns(path):
    """{"time": array, "field": array} of a snapshot; None if it does not read as one."""
    try:
        _, _, time, field = read_snapshot(path)
    except ValueError:
        return None
    return {"time": np.array([time]), "field": field}


def column_moves(a, b):
    """Lines ``<column> ...`` for two {column: value} maps, in A's order, then B's extras."""
    lines = []
    for key in list(a) + [k for k in b if k not in a]:
        va, vb = a.get(key), b.get(key)
        if va is None or vb is None:
            lines.append(f"{key} only in {'A' if vb is None else 'B'}")
        elif isinstance(va, np.ndarray) and isinstance(vb, np.ndarray) and va.shape == vb.shape:
            absolute, relative = largest_moves(va, vb)
            lines.append(f"{key} abs {absolute:.2e} rel {relative:.2e}")
        elif not (isinstance(va, str) and isinstance(vb, str) and va == vb):
            lines.append(f"{key} differs")
    return lines


def tree_moves(root_a, root_b):
    """The lines this tool prints for the trees at root_a and root_b."""
    digest = load_digest()
    files_a, files_b = dict(digest.output_files(root_a)), dict(digest.output_files(root_b))
    lines = []
    for name in sorted(set(files_a) | set(files_b)):
        if name not in files_a or name not in files_b:
            lines.append(f"{name} only in {'A' if name in files_a else 'B'}")
            continue
        a, b = digest.stable_bytes(files_a[name]), digest.stable_bytes(files_b[name])
        basename = name.rsplit("/", 1)[-1]
        if a == b:
            lines.append(f"{name} identical")
        elif basename in TABLES or basename == "report.txt":
            parse = table_columns if basename in TABLES else report_keys
            lines += [f"{name} {line}" for line in column_moves(parse(a.decode()),
                                                                   parse(b.decode()))]
        elif basename.endswith(".hkel") and None not in (
                snaps := [snapshot_columns(files[name]) for files in (files_a, files_b)]):
            lines += [f"{name} {line}" for line in column_moves(*snaps)]
        else:
            lines.append(f"{name} differs")
    return lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="the first kept tree")
    ap.add_argument("b", type=Path, help="the second kept tree")
    args = ap.parse_args(argv)
    for root in (args.a, args.b):
        if not root.is_dir():
            ap.error(f"{root}: not a directory")
    lines = tree_moves(args.a, args.b)
    print("\n".join(lines))
    return 0 if all(line.endswith(" identical") for line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
