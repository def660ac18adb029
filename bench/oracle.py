"""Output oracle for the benchmark: decides whether one CLI call was right.

Two kinds of evidence are used.  For a call whose argv and input files
match one recorded in ``golden.json`` the stdout must be byte-identical
to the recording.  Every call, recorded or not, must also satisfy
invariants computed here from the call's own inputs, without importing
quonstat: closed forms, evaluations at q = 0, 1, -1 (where the quon
scalar product collapses to a count, a permanent or a determinant) and
brute-force pairing sums on small words.
"""

import hashlib
import json
import math
import re
from fractions import Fraction
from itertools import permutations
from pathlib import Path

GOLDEN_PATH = Path(__file__).with_name("golden.json")

BRUTE_FORCE_MAX = 7  # 7! pairings per word pair

_TERM_RE = re.compile(r"^(?:(\d+(?:/\d+)?)(?:\*|$))?(q(?:\^(\d+))?)?$")


class Mismatch(Exception):
    """A call's output contradicts an invariant."""


def parse_poly(text: str) -> dict[int, Fraction]:
    """Coefficients of a polynomial printed as '1 + 2*q - 3/2*q^4'."""
    text = text.strip()
    if text == "0":
        return {}
    coeffs: dict[int, Fraction] = {}
    for term in text.replace(" - ", " + -").split(" + "):
        sign = 1
        if term.startswith("-"):
            sign, term = -1, term[1:]
        m = _TERM_RE.match(term)
        if not term or not m:
            raise Mismatch(f"unreadable polynomial term {term!r} in {text!r}")
        coef = Fraction(m.group(1)) if m.group(1) else Fraction(1)
        power = 0 if not m.group(2) else int(m.group(3) or 1)
        if power in coeffs or not coef:
            raise Mismatch(f"polynomial {text!r} is not in canonical form")
        coeffs[power] = sign * coef
    if list(coeffs) != sorted(coeffs):
        raise Mismatch(f"polynomial {text!r} is not in ascending powers")
    return coeffs


def at(poly: dict[int, Fraction], q) -> Fraction:
    return sum((c * Fraction(q) ** k for k, c in poly.items()), Fraction(0))


def poly_mul(a: dict, b: dict) -> dict:
    out: dict[int, Fraction] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return {k: v for k, v in out.items() if v}


def q_factorial(n: int, sign: int = 1) -> dict:
    """[n]_q! = prod_k (1 + q + ... + q^(k-1)), or the same at -q."""
    out = {0: Fraction(1)}
    for k in range(1, n + 1):
        out = poly_mul(out, {j: Fraction(sign**j) for j in range(k)})
    return out


def inversions(p) -> int:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def brute_force_q_permanent(matrix) -> dict:
    n = len(matrix)
    out: dict[int, Fraction] = {}
    for p in permutations(range(n)):
        prod = 1
        for i, j in enumerate(p):
            prod *= matrix[i][j]
            if not prod:
                break
        if prod:
            k = inversions(p)
            out[k] = out.get(k, 0) + prod
    return {k: Fraction(v) for k, v in out.items() if v}


def ryser_permanent(matrix) -> int:
    """Permanent by Ryser's inclusion-exclusion with a Gray-code walk."""
    n = len(matrix)
    if n == 0:
        return 1
    sums = [0] * n
    total = 0
    subset = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        subset ^= 1 << j
        step = 1 if subset >> j & 1 else -1
        for i in range(n):
            sums[i] += step * matrix[i][j]
        prod = 1
        for s in sums:
            prod *= s
            if not prod:
                break
        total += prod if (n - subset.bit_count()) % 2 == 0 else -prod
    return total


def determinant(matrix) -> Fraction:
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    return det


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _check_q_permanent(poly: dict, matrix, what: str) -> None:
    """Invariants of sum over bijections R of prod a[i][R(i)] q^inv(R)."""
    n = len(matrix)
    _expect(max(poly, default=0) <= n * (n - 1) // 2, f"{what}: degree too high")
    _expect(
        all(c.denominator == 1 and c > 0 for c in poly.values()),
        f"{what}: coefficients must be positive integers",
    )
    if n <= BRUTE_FORCE_MAX:
        _expect(poly == brute_force_q_permanent(matrix), f"{what}: differs from brute force")
        return
    _expect(at(poly, 1) == ryser_permanent(matrix), f"{what}: value at q=1 is not the permanent")
    _expect(at(poly, -1) == determinant(matrix), f"{what}: value at q=-1 is not the determinant")
    _expect(
        at(poly, 0) == math.prod(matrix[i][i] for i in range(n)),
        f"{what}: q^0 coefficient is not the identity pairing",
    )
    top = poly.get(n * (n - 1) // 2, 0)
    _expect(
        top == math.prod(matrix[i][n - 1 - i] for i in range(n)),
        f"{what}: top coefficient is not the reversal pairing",
    )


def _lines(stdout: str) -> list[str]:
    _expect(stdout.endswith("\n"), "output does not end with a newline")
    return stdout[:-1].split("\n")


def _check_sp(spec, stdout):
    (line,) = _lines(stdout)
    poly = parse_poly(line)
    left, right = spec["left"], spec["right"]
    if len(left) != len(right):
        _expect(poly == {}, "unequal lengths must give 0")
        return
    if len(set(left)) == 1 and left == right:
        _expect(poly == q_factorial(len(left)), "all-equal word is not [n]_q!")
    matrix = [[int(a == b) for b in right] for a in left]
    _check_q_permanent(poly, matrix, "sp")


def _check_qperm(spec, stdout):
    (line,) = _lines(stdout)
    _check_q_permanent(parse_poly(line), spec["matrix"], "qperm")


def rep_sums(n: int, rep) -> tuple[int, int, int]:
    """(sum c, sum sign*c, sum c^2) of a representation coefficient vector."""
    if rep == "sym":
        f = math.factorial(n)
        return f, (1 if n == 1 else 0), f
    if rep == "antisym":
        f = math.factorial(n)
        return (1 if n == 1 else 0), f, f
    s = sum(c for _, c in rep)
    s_sign = sum((-1) ** inversions(p) * c for p, c in rep)
    return s, s_sign, sum(c * c for _, c in rep)


def norm_poly(n: int, rep) -> dict | None:
    """Closed-form normalization of the presets: n! [n]_q!, or at -q."""
    if rep not in ("sym", "antisym"):
        return None
    poly = q_factorial(n, 1 if rep == "sym" else -1)
    return {k: v * math.factorial(n) for k, v in poly.items()}


def _check_norm_values(poly: dict, n: int, rep, power: int, what: str) -> None:
    """P(0) = sum c^2, P(1) = (sum c)^2, P(-1) = (sum sign*c)^2 for distinct
    labels; ``power`` 2 checks the square of P instead."""
    s, s_sign, s_sq = rep_sums(n, rep)
    for q, value in ((0, s_sq), (1, s * s), (-1, s_sign * s_sign)):
        _expect(at(poly, q) == value**power, f"{what}: wrong value at q={q}")


def _check_norm(spec, stdout):
    (line,) = _lines(stdout)
    poly = parse_poly(line)
    n, rep = spec["n"], spec["rep"]
    _expect(max(poly, default=0) <= n * (n - 1) // 2, "norm: degree too high")
    closed = norm_poly(n, rep)
    if closed is not None:
        _expect(poly == closed, "norm: differs from n! [n]_q!")
    _check_norm_values(poly, n, rep, 1, "norm")


def _check_composite(spec, stdout):
    lines = _lines(stdout)
    _expect([ln.split("\t")[0] for ln in lines] == ["direct", "exchange", "cross", "exponent"],
            "composite: wrong line layout")
    fields = dict(ln.split("\t", 1) for ln in lines)
    n, rep = spec["n"], spec["rep"]
    direct = parse_poly(fields["direct"])
    exchange = parse_poly(fields["exchange"])
    cross = parse_poly(fields["cross"])
    _expect(fields["exponent"] == str(n * n), "composite: exponent is not n^2")
    _expect(exchange == {k + n * n: v for k, v in direct.items()},
            "composite: exchange is not q^(n^2) * direct")
    closed = norm_poly(n, rep)
    if closed is not None:
        _expect(direct == poly_mul(closed, closed), "composite: direct is not P^2")
    _check_norm_values(direct, n, rep, 2, "composite direct")
    if not spec["overlap"]:
        _expect(cross == {}, "composite: cross must vanish for distinct tags")
        return
    # all four tags equal: every label occurs twice on each side, so q=1
    # counts 2^n pairings per word pair, of which one is direct and one
    # exchange; q=-1 gives a zero determinant; q=0 admits only the identity
    s, s_sign, _ = rep_sums(n, rep)
    _expect(at(cross, 0) == 0, "composite: overlap cross is nonzero at q=0")
    _expect(at(cross, 1) == (2**n - 2) * s**4, "composite: overlap cross wrong at q=1")
    _expect(at(cross, -1) == -(1 + (-1) ** n) * s_sign**4,
            "composite: overlap cross wrong at q=-1")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-12


def _check_gram(spec, stdout):
    lines = _lines(stdout)
    n, q = spec["n"], spec["q"]
    perms = list(permutations(range(n)))
    _expect(len(lines) == len(perms) + (1 if spec["psd"] else 0), "gram: wrong row count")
    for i, pi in enumerate(perms):
        row = lines[i].split("\t")
        _expect(len(row) == len(perms), "gram: wrong column count")
        # distinct labels: one pairing, from place pi^-1(l) to place pj^-1(l)
        where = {v: k for k, v in enumerate(pi)}
        for j, pj in enumerate(perms):
            k = inversions([where[v] for v in pj])
            if q is None:
                want = "1" if k == 0 else "q" if k == 1 else f"q^{k}"
                _expect(row[j] == want, f"gram: entry ({i},{j}) is not q^{k}")
            else:
                _expect(_close(float(row[j]), q**k, 1e-9), f"gram: entry ({i},{j}) is not q^{k}")
    if spec["psd"]:
        tag, verdict, min_eig, flag = lines[-1].split("\t")
        _expect(tag == "psd" and verdict == "pass", "gram: psd check did not pass")
        _expect(flag == ("in_range" if -1 <= q <= 1 else "outside_range"), "gram: wrong range flag")
        if -1 < q < 1:
            _expect(float(min_eig) > 0, "gram: not positive definite")


def _check_weights(spec, stdout):
    n, q = spec["n"], spec["q"]
    weights = {}
    for line in _lines(stdout):
        label, value = line.split("\t")
        weights[label] = float(value)
    _expect(_close(sum(weights.values()), 1.0, 1e-8), "weights: do not sum to 1")
    _expect(all(0 < w < 1 for w in weights.values()), "weights: not probabilities")
    fact = math.factorial(n)
    trivial = float(at(q_factorial(n), Fraction(q))) / fact
    sign = float(at(q_factorial(n, -1), Fraction(q))) / fact
    _expect(_close(weights.get("trivial", -1.0), trivial, 1e-8), "weights: trivial is not [n]_q!/n!")
    _expect(_close(weights.get("sign", -1.0), sign, 1e-8), "weights: sign is not [n]_-q!/n!")


def _check_weo(spec, stdout):
    fermion = spec["q"] == -1 and spec["n"] % 2 == 1
    _expect(stdout == ("fermion\n" if fermion else "boson\n"), "weo: wrong statistics")


def _exact_step_ok(eps_above: float, eps: float, n: int) -> bool:
    """1 - eps_above = (1 - eps)^(n^2), to the 6 printed digits."""
    return _close(math.log1p(-eps) * n * n, math.log1p(-eps_above), 2e-6)


def _check_propagate(spec, stdout):
    (line,) = _lines(stdout)
    eps, n = spec["epsilon"], spec["n"]
    if spec["exact"]:
        _expect(_close(math.log1p(-float(line)) * n * n, math.log1p(-eps), 2e-3),
                "propagate: (1 - eps_c)^(n^2) is not 1 - eps")
    else:
        _expect(_close(float(line), eps / (n * n), 1e-3), "propagate: not eps / n^2")


def _check_chain(spec, stdout):
    lines = _lines(stdout)
    _expect(lines[0] == "species\tn\tparity\tepsilon_first_order\tepsilon_exact\tproximity",
            "chain: wrong header")
    path = spec["path"]
    _expect(len(lines) == len(path) + 1, "chain: wrong row count")
    above = None
    for (species, n), line in zip(path, lines[1:]):
        got_species, got_n, parity, first, exact, proximity = line.split("\t")
        first, exact = float(first), float(exact)
        _expect((got_species, int(got_n)) == (species, n), "chain: wrong species or n")
        if above is None:
            _expect(_close(first, spec["root_epsilon"], 1e-6) and first == exact,
                    "chain: root does not carry the first usable record")
            _expect(proximity == spec["root_proximity"], "chain: wrong root proximity")
        else:
            _expect(parity == ("even" if n % 2 == 0 else "odd"), "chain: wrong parity")
            _expect(proximity == "near_fermi", "chain: derived proximity is not near_fermi")
            _expect(_close(first, above[0] / (n * n), 2e-6), "chain: first order is not eps/n^2")
            _expect(_exact_step_ok(above[1], exact, n), "chain: exact step is wrong")
        above = (first, exact)


_CHECKS = {
    "sp": _check_sp,
    "qperm": _check_qperm,
    "norm": _check_norm,
    "composite": _check_composite,
    "gram": _check_gram,
    "weights": _check_weights,
    "weo": _check_weo,
    "propagate": _check_propagate,
    "chain": _check_chain,
}


def call_key(call: dict) -> str:
    """Identity of a call for the golden table: its argv, with every input
    file replaced by the hash of its contents."""
    parts = []
    for i, arg in enumerate(call["argv"]):
        if i in call["file_args"]:
            arg = "@" + hashlib.sha256(Path(arg).read_bytes()).hexdigest()[:16]
        parts.append(arg)
    return " ".join(parts)


def load_goldens() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


class Oracle:
    """Checks calls, remembering verdicts: a workload repeats the same
    calls every pass, so each distinct output is checked once."""

    def __init__(self, goldens: dict):
        self.goldens = goldens
        self.verdicts: dict = {}

    def check(self, call: dict, exit_code: int, stdout: bytes) -> str | None:
        """None if the call was right, else the reason it was wrong."""
        memo = (call["key"], exit_code, stdout)
        if memo not in self.verdicts:
            self.verdicts[memo] = self._check(call, exit_code, stdout)
        return self.verdicts[memo]

    def _check(self, call, exit_code, stdout) -> str | None:
        if exit_code != 0:
            return f"exit code {exit_code}"
        golden = self.goldens.get(call["key"])
        if golden is not None and golden != hashlib.sha256(stdout).hexdigest():
            return "stdout differs from the golden output"
        try:
            _CHECKS[call["check"]["kind"]](call["check"], stdout.decode())
        except Mismatch as exc:
            return str(exc)
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            return f"unreadable output: {exc!r}"
        return None
