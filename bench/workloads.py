"""The benchmark's workloads: seeded command lists for the quonstat CLI.

``build(workload, seed, inputs)`` writes the seeded input files under
``inputs`` and returns the fixed list of calls that one pass runs.  A
call is a dict with the CLI ``argv``, the indices of argv entries that
name input files (``file_args``) and the ``check`` spec the oracle uses.
The same workload and seed always give the same argv and file contents.

Why each workload exists:

* cli_floor  - ~25 cheap calls of every subcommand; start-up (imports,
               argparse) is nearly all of their cost.
* wick_dense - q-permanent-bound calls (long words, dense matrices, a
               5-label Gram matrix with the PSD check); never touches
               state_scalar_product or composite.
* norm       - normalization polynomials, where state_scalar_product and
               its delta-mask memo do nearly all the work.
* composite  - two-composite classification on the unique-match path,
               the repeated-label backtracking path (overlap) and the
               n=5 factorized path.

The command lists of the workloads with few calls have an odd length, so
the pooled median call latency falls inside one call's cluster of
latencies rather than between two.
"""

import random
from itertools import permutations
from pathlib import Path

WORKLOADS = ("cli_floor", "wick_dense", "norm", "composite")
DEFAULT_SEED = 0  # the seed whose outputs golden.json records

# The bundled dataset's first usable record for O16.
BUNDLED_O16 = (5e-9, "near_bose")


def _call(argv, check, file_args=()):
    return {"argv": [str(a) for a in argv], "file_args": list(file_args), "check": check}


def warmup_call() -> dict:
    """One small call that runs argparse, the exact algebra and the numpy
    eigenvalue path; set-up makes it once so compiles land in set-up."""
    return _gram(["a", "b"], q=0.5, psd=True)


def _sp(left, right):
    return _call(
        ["sp", "--left", ",".join(left), "--right", ",".join(right)],
        {"kind": "sp", "left": list(left), "right": list(right)},
    )


def _gram(labels, q=None, psd=False):
    argv = ["gram", "--labels", ",".join(labels)]
    if q is not None:
        argv += ["--q", repr(q)]
    if psd:
        argv.append("--check-psd")
    return _call(argv, {"kind": "gram", "n": len(labels), "q": q, "psd": psd})


def _norm(n, rep, path=None):
    argv = ["norm", "--n", n, "--rep", path or rep]
    return _call(argv, {"kind": "norm", "n": n, "rep": rep}, [4] if path else [])


def _composite(n, rep, overlap, path=None):
    argv = ["composite", "--n", n, "--rep", path or rep] + (["--overlap"] if overlap else [])
    check = {"kind": "composite", "n": n, "rep": rep, "overlap": overlap}
    return _call(argv, check, [4] if path else [])


def _qperm(matrix, path: Path):
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in matrix))
    return _call(["qperm", "--matrix", path], {"kind": "qperm", "matrix": matrix}, [2])


def _weights(n, q):
    return _call(["weights", "--n", n, "--q", repr(q)], {"kind": "weights", "n": n, "q": q})


def _weo(n, q):
    return _call(["weo", "--n", n, "--q", q], {"kind": "weo", "n": n, "q": q})


def _propagate(epsilon, n, exact):
    argv = ["bounds", "propagate", "--epsilon", repr(epsilon), "--n", n]
    check = {"kind": "propagate", "epsilon": epsilon, "n": n, "exact": exact}
    return _call(argv + (["--exact"] if exact else []), check)


def _chain(path, root, input_path=None):
    argv = ["bounds", "chain"] + (["--input", input_path] if input_path else [])
    argv += ["--path", ",".join(s if n == 1 else f"{s}:{n}" for s, n in path)]
    check = {"kind": "chain", "path": [list(step) for step in path],
             "root_epsilon": root[0], "root_proximity": root[1]}
    return _call(argv, check, [3] if input_path else [])


def _write_rep(path: Path, n: int, rng: random.Random) -> list:
    """Nonzero integer coefficients on all of S_n, so the state's size
    does not depend on the seed."""
    rep = [(p, rng.choice((-3, -2, -1, 1, 2, 3))) for p in permutations(range(1, n + 1))]
    path.write_text(
        "# images\tcoefficient\n"
        + "".join(",".join(map(str, p)) + f"\t{c}\n" for p, c in rep)
    )
    return [[list(p), c] for p, c in rep]


def _dense_matrix(n: int, rng: random.Random) -> list:
    """All ones except one zero per row and column, so the subset DP visits
    nearly every state whatever the seed."""
    holes = list(range(n))
    rng.shuffle(holes)
    return [[0 if j == holes[i] else 1 for j in range(n)] for i in range(n)]


def _name(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghjkmnpqrstuvwxyz") for _ in range(3))


def _write_limits(path: Path, rng: random.Random):
    """A limits file whose root species first appears as a model-dependent
    record, which the chain must skip; returns (chain, root record)."""
    names = []
    while len(names) < 4:
        name = _name(rng).upper()
        if name not in names:
            names.append(name)
    root = (float(f"{rng.uniform(1, 9):.3f}e-{rng.randint(6, 14)}"),
            rng.choice(("near_bose", "near_fermi")))
    chain = [(names[0], 1)] + [(name, rng.randint(2, 20)) for name in names[1:]]
    rows = [
        "# species\tcomposite_of\tn\tepsilon\tproximity\tsource\tcomment",
        f"{names[0]}\t{names[1]}\t{chain[1][1]}\t1e-3\tnear_bose\tbench-model\tmodel_dependent",
        f"{names[0]}\t{names[1]}\t{chain[1][1]}\t{root[0]!r}\t{root[1]}\tbench-seeded",
        f"{names[2]}\t-\t1\t2e-2\tnear_fermi\tbench-seeded",
    ]
    path.write_text("\n".join(rows) + "\n")
    return chain, root


def _cli_floor(rng: random.Random, inputs: Path) -> list:
    alphabet = [_name(rng) for _ in range(3)]
    word = [rng.choice(alphabet) for _ in range(5)]
    shuffled = rng.sample(word, len(word))
    small = [[int(rng.random() < 0.6) for _ in range(5)] for _ in range(5)]
    limits = inputs / "limits.tsv"
    chain, root = _write_limits(limits, rng)
    weight_q = [round(rng.uniform(-0.9, 0.9), 3) for _ in range(3)]
    return [
        _sp(["k1", "k2"], ["k2", "k1"]),
        _sp(["k1", "k2", "k3"], ["k3", "k1", "k2"]),
        _sp(word, shuffled),
        _sp(["p1:1", "p1:2"], ["p1:2", "p1:1"]),
        _sp(["p1:1", "p2:1", "p1:2"], ["p1:2", "p1:1", "p2:1"]),
        _sp(["a", "b", "c"], ["a", "b"]),
        _sp(["x"] * 5, ["x"] * 5),
        _weo(rng.randrange(1, 40, 2), -1),
        _weo(rng.randrange(2, 40, 2), -1),
        _weo(rng.randint(1, 40), 1),
        _propagate(5e-9, 16, False),
        _propagate(5e-9, 16, True),
        _propagate(float(f"{rng.uniform(1, 9):.2f}e-{rng.randint(3, 12)}"), rng.randint(2, 30), True),
        _chain([("O16", 1), ("nucleon", 16), ("quark", 3)], BUNDLED_O16),
        _chain(chain, root, limits),
        _norm(3, "sym"),
        _norm(3, "antisym"),
        _weights(2, weight_q[0]),
        _weights(3, weight_q[1]),
        _weights(4, weight_q[2]),
        _gram(["a", "b", "c"]),
        _gram(["a", "b", "c"], q=weight_q[0]),
        warmup_call(),
        _qperm(small, inputs / "small.tsv"),
        _qperm([[1, 1, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 1, 0]], inputs / "fixed.tsv"),
    ]


def _wick_dense(rng: random.Random, inputs: Path) -> list:
    return [
        _sp(["a"] * 15, ["a"] * 15),
        _sp(["a", "b"] * 8, ["a", "b"] * 8),
        _qperm(_dense_matrix(14, rng), inputs / "dense14.tsv"),
        _qperm(_dense_matrix(13, rng), inputs / "dense13.tsv"),
        _gram(["a", "b", "c", "d", "e"], q=0.5, psd=True),
    ]


def _norm_workload(rng: random.Random, inputs: Path) -> list:
    path = inputs / "rep5.tsv"
    rep = _write_rep(path, 5, rng)
    return [
        _norm(6, "antisym"),
        _norm(5, "sym"),
        _norm(5, rep, str(path)),
    ]


def _composite_workload(rng: random.Random, inputs: Path) -> list:
    path = inputs / "rep3.tsv"
    rep = _write_rep(path, 3, rng)
    return [
        _composite(4, "sym", False),
        _composite(3, "antisym", True),
        _composite(3, rep, True, str(path)),
        _composite(2, "antisym", True),
        _composite(5, "sym", False),
    ]


_GENERATORS = {
    "cli_floor": _cli_floor,
    "wick_dense": _wick_dense,
    "norm": _norm_workload,
    "composite": _composite_workload,
}


def build(workload: str, seed: int, inputs: Path) -> list:
    """Write the seeded inputs of ``workload`` under ``inputs`` and return
    its call list."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), inputs)
