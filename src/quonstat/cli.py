"""Command-line surface.  Every subcommand prints deterministic,
tab-separated output; polynomials use the qpoly text format.

Options come from the one ``COMMANDS`` table: ``--name value`` or
``--name=value``, never abbreviated; ``-h``/``--help`` prints the usage.
Label and chain lists are split by ``_split_list``; rep and matrix files
are read, like limits files, by ``errors.read_rows``.  Each parser keeps
its own checks and stops at the first bad entry or line.

``composite`` calls only the public ``composite`` API: ``exchange_law``
for the direct, exchange and exponent lines, and under ``--overlap``
first ``two_composite_scalar`` on four equal tags, which forms its own P.
Under ``--overlap`` the S_2n cap of that product is checked before the
rep is read, so n > 4 is refused before any preset or file is built.

Exit codes: 0 success, 1 contract violations, a closed stdout and out of
memory, 2 parse errors.

``main`` returns the exit code and leaves the collector as it found it,
so in-process callers keep a collectable heap.  ``run``, the entry point
of the ``quonstat`` script and of ``python -m quonstat.cli``, calls
``main``, freezes the heap with ``gc.freeze()`` and exits with main's
code: shutdown still runs the atexit handlers, flushes stdio and tears
down the modules, but its full collections skip every object the
process made, whose memory the OS reclaims.
"""

import gc
import math
import os
import sys
import warnings
from collections.abc import Iterator
from fractions import Fraction
from types import SimpleNamespace

from . import bounds as bounds_mod
from . import composite as composite_mod
from . import fock, wick
from .errors import ContractViolation, ParseError, QuonError, read_rows, refuse_above_cap
from .permutations import RepCoefficients, check_permutation, preset_rep
from .wick import ModeLabel


def _float(raw: str) -> float:
    """``float`` that refuses a finite literal too large for a float,
    which ``float`` would turn into an infinity nobody typed; 'inf' and
    'nan' spelled out pass through to the checks of the command."""
    value = float(raw)
    if math.isinf(value) and "inf" not in raw.lower():
        raise ValueError(f"{raw} is outside the float range")
    return value


def _split_list(raw: str, entry: str) -> Iterator[tuple[str, str, str]]:
    """Each comma entry of ``raw``, split at its first ':' as by
    ``str.partition``, with both sides stripped, so 'a : 1' is 'a:1'; an
    empty entry is a ParseError naming it as ``entry``.  Entries are
    yielded one by one, so an error in an earlier entry is reported
    first."""
    for token in raw.split(","):
        token = token.strip()
        if not token:
            raise ParseError(f"empty {entry} in {raw!r}")
        head, sep, tail = token.partition(":")
        yield head.rstrip(), sep, tail.lstrip()


def _parse_labels(raw: str) -> tuple[ModeLabel, ...]:
    labels = []
    for tag, sep, index in _split_list(raw, "label"):
        if sep and not (tag and index):
            raise ParseError(f"label {tag + sep + index!r} needs a tag and an index")
        labels.append(ModeLabel(index, tag) if sep else ModeLabel(tag))
    return tuple(labels)


def _parse_rep(raw: str, n: int) -> RepCoefficients:
    if raw == "sym":
        return preset_rep(n, "symmetric")
    if raw == "antisym":
        return preset_rep(n, "antisymmetric")
    if not os.path.exists(raw):
        raise ParseError(f"rep must be 'sym', 'antisym', or a file; {raw!r} not found")
    coeffs = {}
    first_line = {}
    for lineno, parts in read_rows(raw):
        if len(parts) != 2:
            raise ParseError(f"{raw}:{lineno}: expected 'images<TAB>coefficient'")
        try:
            images = check_permutation(int(x) for x in parts[0].split(","))
            # a short exponent can stand for more digits than memory holds
            if "e" in parts[1].lower():
                raise ValueError(f"coefficient {parts[1]!r} has an exponent")
            coeff = Fraction(parts[1])
        except (ValueError, ContractViolation) as exc:
            raise ParseError(f"{raw}:{lineno}: {exc}") from None
        except ZeroDivisionError:
            raise ParseError(f"{raw}:{lineno}: coefficient {parts[1]!r} has a zero denominator") from None
        arity = len(next(iter(coeffs), images))
        if len(images) != arity:
            raise ParseError(f"{raw}:{lineno}: {len(images)} images, earlier lines have {arity}")
        if images in coeffs:
            raise ParseError(
                f"{raw}:{lineno}: permutation {parts[0]} already given on line {first_line[images]}"
            )
        coeffs[images] = coeff
        first_line[images] = lineno
    if not coeffs:
        raise ParseError(f"{raw}: no coefficients found")
    stem = os.path.splitext(os.path.basename(raw))[0]
    rep = RepCoefficients(n=len(next(iter(coeffs))), coeffs=coeffs, label=stem)
    if rep.n != n:
        raise ContractViolation(f"rep file is over S_{rep.n}, but --n is {n}")
    return rep


def _parse_matrix(path: str) -> list[list[int]]:
    rows = []
    for lineno, parts in read_rows(path):
        try:
            row = [int(x) for x in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: entries must be integers") from None
        if any(x not in (0, 1) for x in row):
            raise ParseError(f"{path}:{lineno}: matrix entries must be 0 or 1")
        if rows and len(row) != len(rows[0]):
            raise ParseError(f"{path}:{lineno}: {len(row)} entries, earlier rows have {len(rows[0])}")
        rows.append(row)
    if not rows:
        raise ParseError(f"{path}: empty matrix")
    return rows


def _cmd_sp(args) -> int:
    left = _parse_labels(args.left)
    right = _parse_labels(args.right)
    print(wick.scalar_product(left, right))
    return 0


def _cmd_qperm(args) -> int:
    print(wick.q_permanent(_parse_matrix(args.matrix)))
    return 0


def _cmd_norm(args) -> int:
    rep = _parse_rep(args.rep, args.n)
    labels = [ModeLabel(i) for i in range(1, args.n + 1)]
    print(fock.normalization_poly(rep, labels))
    return 0


def _cmd_gram(args) -> int:
    labels = _parse_labels(args.labels)
    if args.check_psd and args.q is None:
        raise ParseError("--check-psd needs --q")
    g = fock.gram(fock.permutation_basis(labels))
    if args.q is None:
        for row in g.map_entries(str):
            print("\t".join(row))
    else:
        # each distinct entry is evaluated and formatted once, like the
        # exact text; a refused evaluation or report must leave stdout empty
        value = fock._entry_value(args.q)
        rows = g.map_entries(lambda entry: f"{value(entry):.10g}")
        report = fock.psd_report(labels, args.q) if args.check_psd else None
        for row in rows:
            print("\t".join(row))
        if args.check_psd:
            verdict = "pass" if report.passed else "fail"
            flag = "in_range" if report.q_in_range else "outside_range"
            print(f"psd\t{verdict}\t{report.min_eigenvalue:.6e}\t{flag}")
    return 0


def _cmd_weights(args) -> int:
    weights = fock.irrep_weights(args.n, args.q)
    for label, value in weights.items():
        print(f"{label}\t{value:.10g}")
    return 0


def _cmd_composite(args) -> int:
    if args.overlap:
        # the product of four equal tags is work over S_2n; past that cap
        # it is refused before the rep is read
        refuse_above_cap(2 * args.n)
    rep = _parse_rep(args.rep, args.n)
    spec = composite_mod.CompositeSpec(
        n=args.n, internal_labels=tuple(range(1, args.n + 1)), rep=rep
    )
    if args.overlap:
        cross = composite_mod.two_composite_scalar(spec, ("t", "t"), ("t", "t")).cross
    aligned, swapped, exponent = composite_mod.exchange_law(spec)
    if not args.overlap:
        # the aligned cross term, which exchange_law checked to be zero
        cross = aligned.cross
    print(f"direct\t{aligned.direct}")
    print(f"exchange\t{swapped.exchange}")
    print(f"cross\t{cross}")
    print(f"exponent\t{exponent}")
    return 0


def _cmd_weo(args) -> int:
    if args.q not in (-1, 1):
        raise ParseError(f"--q must be -1 or 1, got {args.q}")
    sign = "bose" if args.q == 1 else "fermi"
    print(composite_mod.weo_limit_check(args.n, sign))
    return 0


def _cmd_bounds_propagate(args) -> int:
    if args.exact:
        value = bounds_mod.propagate_exact(args.epsilon, args.n)
    else:
        value = bounds_mod.propagate_first_order(args.epsilon, args.n)
    print(f"{value:.3e}")
    return 0


def _parse_chain(raw: str) -> list[tuple[str, int]]:
    chain = []
    for species, sep, n_raw in _split_list(raw, "chain entry"):
        try:
            chain.append((species, int(n_raw) if sep else 1))
        except ValueError:
            raise ParseError(f"bad constituent count in {species + sep + n_raw!r}") from None
    return chain


def _cmd_bounds_chain(args) -> int:
    path = args.input if args.input else bounds_mod.bundled_limits_path()
    records = bounds_mod.ingest_limits(path)
    rows = bounds_mod.derive_chain(records, _parse_chain(args.path))
    print("\t".join(bounds_mod.ChainRow.__slots__))
    for row in rows:
        print(
            f"{row.species}\t{row.n}\t{row.parity}\t"
            f"{row.epsilon_first_order:.6e}\t{row.epsilon_exact:.6e}\t{row.proximity}"
        )
    return 0


# Each command: its handler, a one-line help and its options, each option
# as (name, conversion of its value or bool for a flag, required).
COMMANDS = {
    "sp": (_cmd_sp, "scalar product of two creation words; labels 'a,b' or 'tag:index'",
           [("--left", str, True), ("--right", str, True)]),
    "qperm": (_cmd_qperm, "q-permanent of a file of 0/1 rows", [("--matrix", str, True)]),
    "norm": (_cmd_norm, "normalization polynomial; --rep is sym, antisym or a coefficient file",
             [("--n", int, True), ("--rep", str, True)]),
    "gram": (_cmd_gram, "Gram matrix over the permutation basis; --check-psd needs --q",
             [("--labels", str, True), ("--q", _float, False), ("--check-psd", bool, False)]),
    "weights": (_cmd_weights, "irrep weights of the n-quon state",
                [("--n", int, True), ("--q", _float, True)]),
    "composite": (_cmd_composite, "two-composite components; --overlap forces a tag overlap",
                  [("--n", int, True), ("--rep", str, True), ("--overlap", bool, False)]),
    "weo": (_cmd_weo, "boundary statistics of an n-constituent composite; --q is -1 or 1",
            [("--n", int, True), ("--q", int, True)]),
    "bounds propagate": (_cmd_bounds_propagate, "propagate one deviation bound", [
        ("--epsilon", _float, True), ("--n", int, True), ("--exact", bool, False)]),
    "bounds chain": (_cmd_bounds_chain, "bounds down a chain such as O16,nucleon:16,quark:3",
                     [("--input", str, False), ("--path", str, True)]),
}


def _print_help(names) -> int:
    print("usage: quonstat COMMAND [--option VALUE | --option=VALUE | --flag]...")
    for name in names:
        _, about, options = COMMANDS[name]
        words = (o if kind is bool else f"{o} {o[2:].upper()}" for o, kind, _ in options)
        words = (w if required else f"[{w}]" for w, (*_, required) in zip(words, options))
        print(f"\n  quonstat {name} {' '.join(words)}\n      {about}")
    return 0


def _parse(argv: list[str]):
    """The handler that argv names and the namespace of its options; for
    -h or --help, the help printer and the commands it shows.  A valued
    option takes the next token whatever it is, so '-1e-3' is a value; a
    repeated option keeps its last value.  Usage errors raise ParseError."""
    count = next((i for i, token in enumerate(argv) if token.startswith("-")), len(argv))
    words, name, tokens = argv[:count], " ".join(argv[:count]), iter(argv[count:])
    matches = [command for command in COMMANDS if command.split()[:count] == words]
    if name not in matches:
        if not matches:
            raise ParseError(f"unknown command {name!r}; see quonstat --help")
        if argv[count:count + 1] in (["-h"], ["--help"]):
            return _print_help, matches
        raise ParseError(f"expected a command: {', '.join(matches)}")
    handler, _, options = COMMANDS[name]
    kinds = {option: kind for option, kind, _ in options}
    values = {option: False if kind is bool else None for option, kind in kinds.items()}
    for token in tokens:
        if token in ("-h", "--help"):
            return _print_help, [name]
        option, eq, value = token.partition("=")
        if option not in kinds:
            raise ParseError(f"quonstat {name} has no option {option!r}")
        convert = kinds[option]
        if convert is bool:
            if eq:
                raise ParseError(f"{option} takes no value")
            values[option] = True
            continue
        if not eq and (value := next(tokens, None)) is None:
            raise ParseError(f"{option} needs a value")
        try:
            values[option] = convert(value)
        except ValueError as exc:
            raise ParseError(f"{option}: {exc}") from None
    missing = [option for option, _, required in options if required and values[option] is None]
    if missing:
        raise ParseError(f"quonstat {name} needs {', '.join(missing)}")
    return handler, SimpleNamespace(**{o[2:].replace("-", "_"): v for o, v in values.items()})


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """Show a library warning as one ``warning:`` line on stderr, without
    the source location and echoed source line of the default format."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        with warnings.catch_warnings():
            warnings.showwarning = _warning_line
            code = handler(args)
        # a reader that went away must surface here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # the unwound frames have released what the failed step held
        print("error: out of memory", file=sys.stderr)
        return 1


def run() -> None:
    """Exit with ``main()``'s code after freezing the heap, so the full
    collections of interpreter shutdown do not walk every live object."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
