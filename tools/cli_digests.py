#!/usr/bin/env python3
"""sha256 of the stdout of every CLI run in a fixed reference set.

    python3 tools/cli_digests.py [--seeds 0,1,2,3]

Prints one ``<sha256>  <argv>`` line per run, in a fixed order, so that the
output of two checkouts can be compared with ``diff``: equal lines mean the
CLI writes the same bytes.  It imports pptlab from the ``src/`` of the
checkout it lives in; to digest another checkout, copy this file into that
checkout's ``tools/`` and run it there.

Every run goes in-process through ``pptlab.cli.run`` with stdout captured.
The files that ``correlate`` and ``predict`` read (the two ``build`` outputs,
a gauge-twisted copy of the second, a two-insertion observable and the two
``fit`` reports) are written to a temporary directory; the printed argv names
them by file name only, so the lines do not depend on where that directory
is.  A run that exits non-zero gets ``[exit N]`` appended.  Per seed there
are 22 runs:

* ``build --D 16 --N 50`` and ``build --D 2 --N 5 --entangled``;
* ``correlate`` on both files, without and with an observable of
  insertions at steps 1 and 3;
* ``correlate`` with that observable on the ``--entangled`` output with a
  fixed invertible gauge on every inner bond (``twisted``): the same state,
  whose sites are not right-canonical, so it is swept to its end and divided
  by its squared norm;
* ``tomograph --D 2 --N 9``, ``--D 2 --N 6 --entangled`` and
  ``--D 2 --N 6 --shots 10000``;
* ``fit --D 2 --N 6`` and ``--D 4 --N 6``, each followed by
  ``predict --nfuture 50`` on its report;
* ``reconstruct-entangled --D 2 --N 7``;
* ``complexity --D 16 --alpha 1,2`` and ``--D 4 --entangled --alpha 1,2``;
* ``complexity --D 1 --alpha 1,2``, whose pure stationary state has zero
  entropy at both orders, written as 0.0 and not -0.0;
* ``figs2 --D 2 --eta 0.01 --nmax 200 --seeds 4 --seed-base <seed>``,
  with a fixed H and with ``--time-dependent``;
* ``figs2 --D 2 --eta 0.3 --nmax 50 --seeds 4 --time-dependent
  --seed-base <seed>``, which covers the Taylor kernel's squaring branch:
  at seeds 0 to 199 every draw is scaled by 2^-s with s >= 1 and squared
  back s times;
* ``figs2 --D 3 --eta 0.01 --nmax 50 --seeds 4 --time-dependent
  --seed-base <seed>``, whose dim-6 draws take the kernel's given-layout
  products, where the D = 2 runs above take the stack-innermost ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from pptlab import MultiTimeObservable, PptMps, cli  # noqa: E402

_Z = np.diag([1.0, -1.0])
_X = np.array([[0.0, 1.0], [1.0, 0.0]])
# Z on the out leg and Z on the in leg at step 1, X on the out leg at step 3
OBSERVABLE = MultiTimeObservable(((1, np.kron(_Z, _Z)), (3, np.kron(_X, np.eye(2)))))


def twisted(mps: PptMps) -> PptMps:
    """``mps`` with the gauge G = I + (strict upper triangle of 0.5s) on every
    inner bond: chain element k times G, element k + 1 times G^-1 from the left."""
    chain = mps.chain()
    for k in range(len(chain) - 1):
        n = chain[k].shape[3]
        g = np.eye(n) + 0.5 * np.triu(np.ones((n, n)), 1)
        chain[k] = chain[k] @ g
        chain[k + 1] = np.einsum("ca,aoib->coib", np.linalg.inv(g), chain[k + 1])
    return PptMps(runs=tuple((t, 1) for t in chain))


def _run(argv: list[str], workdir: Path) -> tuple[str, str]:
    """The stdout of one in-process CLI run and its digest line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    text = out.getvalue()
    shown = " ".join(Path(a).name if a.startswith(str(workdir)) else a for a in argv)
    line = f"{hashlib.sha256(text.encode()).hexdigest()}  {shown}"
    return text, line if code == 0 else f"{line}  [exit {code}]"


def digests(seed: int, workdir: Path) -> list[str]:
    """The 22 digest lines of the reference set at ``seed``; inputs go to ``workdir``."""
    lines = []

    def run(*args: str, keep: str | None = None) -> None:
        text, line = _run(list(args), workdir)
        lines.append(line)
        if keep is not None:  # an input of a later run
            (workdir / keep).write_text(text, encoding="ascii")

    s = str(seed)
    observable = workdir / "observable.json"
    observable.write_text(OBSERVABLE.to_json(), encoding="ascii")
    run("build", "--D", "16", "--N", "50", "--seed", s, keep=f"build-D16-{s}.json")
    run("build", "--D", "2", "--N", "5", "--entangled", "--seed", s, keep=f"build-ent-{s}.json")
    for name in (f"build-D16-{s}.json", f"build-ent-{s}.json"):
        run("correlate", "--ppt", str(workdir / name))
        run("correlate", "--ppt", str(workdir / name), "--observable", str(observable))
    ent = PptMps.from_json_dict(json.loads((workdir / f"build-ent-{s}.json").read_text())["ppt"])
    twist = workdir / f"twisted-ent-{s}.json"
    twist.write_text(twisted(ent).to_json(), encoding="ascii")
    run("correlate", "--ppt", str(twist), "--observable", str(observable))
    run("tomograph", "--D", "2", "--N", "9", "--seed", s)
    run("tomograph", "--D", "2", "--N", "6", "--entangled", "--seed", s)
    run("tomograph", "--D", "2", "--N", "6", "--shots", "10000", "--seed", s)
    for D in ("2", "4"):
        report = f"fit-D{D}-{s}.json"
        run("fit", "--D", D, "--N", "6", "--seed", s, keep=report)
        run("predict", "--report", str(workdir / report), "--nfuture", "50")
    run("reconstruct-entangled", "--D", "2", "--N", "7", "--seed", s)
    run("complexity", "--D", "16", "--alpha", "1,2", "--seed", s)
    run("complexity", "--D", "4", "--entangled", "--alpha", "1,2", "--seed", s)
    run("complexity", "--D", "1", "--alpha", "1,2", "--seed", s)
    figs2 = ("figs2", "--D", "2", "--eta", "0.01", "--nmax", "200", "--seeds", "4")
    run(*figs2, "--seed-base", s)
    run(*figs2, "--seed-base", s, "--time-dependent")
    for D, eta in (("2", "0.3"), ("3", "0.01")):
        run("figs2", "--D", D, "--eta", eta, "--nmax", "50", "--seeds", "4", "--time-dependent",
            "--seed-base", s)
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0,1,2,3", help="comma list of CLI seeds")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="cli-digests-") as tmp:
        for seed in (int(s) for s in args.seeds.split(",")):
            print("\n".join(digests(seed, Path(tmp))), flush=True)


if __name__ == "__main__":
    main()
