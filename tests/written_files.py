"""The same-outputs rule for CLI output trees, shared by the tests that rerun commands.

Two trees hold the same outputs when they hold the same relative paths and every file is
byte-identical, with the lines that start "# generated=" (the timestamp) dropped from .csv
files only.
"""

import os


def written(out):
    """{path relative to out: bytes} of every file under out, with the "# generated=" lines of
    .csv files dropped."""
    files = {}
    for root, _dirs, names in os.walk(out):
        for name in names:
            with open(os.path.join(root, name), "rb") as fh:
                lines = fh.readlines()
            if name.endswith(".csv"):
                lines = [ln for ln in lines if not ln.startswith(b"# generated=")]
            files[os.path.relpath(os.path.join(root, name), out)] = b"".join(lines)
    return files


def differing(first, second):
    """The sorted paths of two written() results that one lacks or whose contents differ."""
    return sorted(name for name in first.keys() | second.keys()
                  if first.get(name) != second.get(name))
