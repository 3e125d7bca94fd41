"""Dump or compare every simulator experiment at its ``--quick`` grid.

A refactor of anything a simulator run touches must leave every printed
table and every ``out.data`` as it was: the simulator is deterministic,
so any difference is the change. Dump both trees, then compare:

    (cd BASE && PYTHONPATH=src python /path/to/sim_dump.py dump OUT/base)
    PYTHONPATH=src python benchmarks/sim_dump.py dump OUT/change
    PYTHONPATH=src python benchmarks/sim_dump.py compare OUT/base OUT/change

``dump`` writes ``<name>.txt`` (the table as ``repro run`` prints it) and
``<name>.pkl`` (the pickled ``out.data``) per experiment. ``compare``
checks the tables byte for byte and the data with ``==`` and exits 1 on
any difference. About 2.5 min per dump on a 2-cpu x86 box.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import os
import pickle
import sys


def dump(out_dir: str) -> None:
    from repro.bench import experiments

    try:
        from repro.bench.experiments import QUICK_ARGS
    except ImportError:  # trees from before the registry left cli.py
        from repro.cli import QUICK_ARGS
    os.makedirs(out_dir, exist_ok=True)
    for name in sorted(experiments.ALL_EXPERIMENTS):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            out = experiments.ALL_EXPERIMENTS[name](**QUICK_ARGS[name])
            out.print()
        with open(os.path.join(out_dir, f"{name}.txt"), "w") as f:
            f.write(buf.getvalue())
        with open(os.path.join(out_dir, f"{name}.pkl"), "wb") as f:
            pickle.dump(out.data, f)
        print(name, "dumped", flush=True)


def compare(base_dir: str, change_dir: str) -> bool:
    names = sorted(
        {f[:-4] for d in (base_dir, change_dir) for f in os.listdir(d) if f.endswith(".txt")}
    )
    same = True
    for name in names:
        paths = [os.path.join(d, name) for d in (base_dir, change_dir)]
        if not all(os.path.exists(p + ".txt") for p in paths):
            print(name, "MISSING on one side")
            same = False
            continue
        table = filecmp.cmp(paths[0] + ".txt", paths[1] + ".txt", shallow=False)
        base, change = (pickle.load(open(p + ".pkl", "rb")) for p in paths)
        data = base == change
        same = same and table and data
        print(name, "table", "same" if table else "DIFFERS",
              "data", "equal" if data else "DIFFERS")
    return same


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        dump(argv[1])
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return 0 if compare(argv[1], argv[2]) else 1
    print(__doc__.strip(), file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
