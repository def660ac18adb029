"""Traced in-process run of a workload's calls through ``quonstat.cli.main``.

Started by ``run.py --trace 1`` with the same environment as the CLI
children.  It alternates an untraced pass and a traced pass over the
calls, for at least ``--seconds`` and at least two traced passes.  The
traced pass wraps, from outside the package, every public function of
the layer modules at every module-global name it is bound to, plus the
QPolynomial arithmetic methods and GramMatrix.evaluate.  Each wrapper
keeps a span (name, start, end, parent, counts) in memory; self time is
derived after the pass, and the originals are put back before the next
untraced pass.

Writes a result document (``--result``) with per-pass summaries and the
spans of the first traced pass (``--spans``).
"""

import argparse
import contextlib
import inspect
import io
import json
import math
import sys
import time

import oracle
import quonstat.cli

LAYERS = ("cli", "qpoly", "wick", "fock", "composite", "permutations", "bounds")
# The CLI's one boundary is main; its helpers are argparse and printing.
CLI_BOUNDARY = "main"
METHODS = (
    ("qpoly", "QPolynomial", "__mul__", "qpoly.mul"),
    ("qpoly", "QPolynomial", "__rmul__", "qpoly.mul"),
    ("qpoly", "QPolynomial", "__add__", "qpoly.add"),
    ("qpoly", "QPolynomial", "__radd__", "qpoly.add"),
    ("fock", "GramMatrix", "evaluate", "fock.GramMatrix.evaluate"),
)

# Work counts read from a call's arguments and result.
COUNTERS = {
    "wick.q_permanent": lambda a, r: {"rows": len(a[0]), "dp_bound": 2 ** len(a[0])},
    "fock.state_scalar_product": lambda a, r: {"pairs": len(a[0].terms) * len(a[1].terms)},
    "fock.tensor": lambda a, r: {"terms": len(r.terms)},
    "fock.gram": lambda a, r: {"entries": r.dimension**2},
    "permutations.all_permutations": lambda a, r: {"elements": math.factorial(a[0])},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack = [-1]  # index of the open span; -1 at the top level
        self.patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, None)
            if counter is not None:
                spans[index] = (name, start, end, parent, counter(args, result))
            return result

        traced.__wrapped__ = fn
        traced.bench_wrapper = True
        return traced

    def install(self):
        """Wrap every public function of the layer modules, at each
        module-global name of the package that it is bound to."""
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"quonstat.{layer}"]
            for attr, obj in vars(module).items():
                if layer == "cli" and attr != CLI_BOUNDARY:
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrappers = {key: self._wrap(name, obj) for key, (obj, name) in targets.items()}
        for module_name, module in list(sys.modules.items()):
            if module_name != "quonstat" and not module_name.startswith("quonstat."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    self.patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for layer, cls_name, attr, name in METHODS:
            owner = getattr(sys.modules[f"quonstat.{layer}"], cls_name)
            original = owner.__dict__[attr]
            self.patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> bool:
        """Put every original back; True if no wrapper is left anywhere."""
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original for owner, attr, original in self.patches)
        self.patches.clear()
        for module_name, module in list(sys.modules.items()):
            if module_name == "quonstat" or module_name.startswith("quonstat."):
                for obj in vars(module).values():
                    members = vars(obj).values() if inspect.isclass(obj) else (obj,)
                    if any(getattr(m, "bench_wrapper", False) for m in members):
                        restored = False
        return restored

    def summary(self) -> dict:
        """Per-name calls, self time and work counts of the recorded spans,
        plus the derived ratios."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = {}
        counts: dict = {}
        for i, (name, start, end, parent, work) in enumerate(spans):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            counts[f"{name}.calls"] = counts.get(f"{name}.calls", 0) + 1
            for key, value in (work or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        dp_in_state = 0
        tensor_sizes: dict = {}
        for name, _, _, parent, work in spans:
            if name == "wick.q_permanent" and self._ancestor(parent, "fock.state_scalar_product") >= 0:
                dp_in_state += 1
            elif name == "fock.tensor" and work:
                owner = self._ancestor(parent, "composite.two_composite_scalar")
                if owner >= 0:
                    tensor_sizes.setdefault(owner, []).append(work["terms"])
        pairs = counts.get("fock.state_scalar_product.pairs", 0)
        counts["fock.state_scalar_product.dp_per_pair"] = dp_in_state / pairs if pairs else 0.0
        counts["composite.two_composite_scalar.term_pairs"] = sum(
            sizes[k] * sizes[k + 1] for sizes in tensor_sizes.values() for k in range(0, len(sizes) - 1, 2)
        )
        return {"self_s": self_s, "counts": counts}

    def _ancestor(self, index: int, name: str) -> int:
        while index >= 0 and self.spans[index][0] != name:
            index = self.spans[index][3]
        return index


def run_pass(calls: list, checker: oracle.Oracle) -> tuple[float, list]:
    """One pass of in-process calls; returns (seconds, failure reasons).
    Outputs are checked after the timed region."""
    outputs = []
    start = time.perf_counter()
    for call in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = quonstat.cli.main(call["argv"])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # an uncaught error: the CLI would exit 1
                code = 1
        outputs.append((code, out.getvalue().encode()))
    elapsed = time.perf_counter() - start
    failures = []
    for call, (code, stdout) in zip(calls, outputs):
        reason = checker.check(call, code, stdout)
        if reason is not None:
            failures.append(f"in-process {' '.join(call['argv'])}: {reason}")
    return elapsed, failures


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process run")
    parser.add_argument("--calls", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    with open(args.calls) as f:
        calls = json.load(f)
    checker = oracle.Oracle(oracle.load_goldens())
    untraced_s, traced_s, passes, failures = [], [], [], []
    restored = True
    start = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - start < args.seconds:
        elapsed, failed = run_pass(calls, checker)
        untraced_s.append(elapsed)
        failures += failed
        tracer = Tracer()
        tracer.install()
        try:
            elapsed, failed = run_pass(calls, checker)
        finally:
            restored = tracer.uninstall() and restored
        traced_s.append(elapsed)
        failures += failed
        passes.append(tracer.summary())
        if len(passes) == 1:
            with open(args.spans, "w") as f:
                json.dump([list(span) for span in tracer.spans], f)
    for later in passes[1:]:
        if later["counts"] != passes[0]["counts"]:
            diff = sorted(k for k in later["counts"] if later["counts"][k] != passes[0]["counts"].get(k))
            failures.append(f"work counts differ between traced passes: {diff}")
            break
    with open(args.result, "w") as f:
        json.dump({
            "attempted": 2 * len(calls) * len(passes),
            "failures": failures,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "passes": passes,
            "restored": restored,
        }, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
