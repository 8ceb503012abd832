"""Command-line surface: matrix I/O, constructions, analysis, verification.

Exit codes: 0 success (and verification PASS), 1 verification failure,
2 parse/usage error (a bad file or flag value, a flag the verify target does
not read, an ``--out`` that cannot be written), 3 a work cap refused the
input (sweep rank > 28, d-bar witness descent past 2^20 prefix tests,
enumeration rank > 768, an enumeration keeping more than 2^24 vector
entries; sign support > 24 is a library refusal no command reaches),
4 construction error, 5 enumeration budget exhausted, 70 internal error
(a bug, not a verdict).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from time import perf_counter

from .constructions import (
    _d_bar_verdict,
    construction_a,
    construction_c_star,
    construction_d,
    d_bar_span,
    simplified_d,
    vladut_special_d,
)
from .errors import (
    EnumerationBudgetExceeded,
    HypothesesFail,
    OutputTooLarge,
    ParseError,
    QuotientTooLarge,
    RankTooLarge,
    SupportTooLarge,
    ToolkitError,
)
from .gf2core import BinaryMatrix, Code, min_weight_codewords
from .gadgets import (
    Thm22Gadget,
    build_cor25,
    check_thm22_hypotheses,
    golay_lp_check,
    passed,
    verify_cor23,
    verify_cor25,
    verify_cstar_collapse,
    verify_dbar_schur,
    verify_thm24,
)
from .matio import (
    cor23_matrices,
    format_z_matrix,
    load_code_tower,
    load_matrix_tower,
    read_matrix,
)
from .zlattice import DEFAULT_BUDGET, Lattice, determinant, shortest_vectors

CONSTRUCTIONS = ("a", "d", "d-special", "simplified-d", "c-star", "d-bar")
TEXT_VECTOR_CAP = 1000


def _checked(parse, ok, need: str, default) -> dict:
    """argparse keywords for a flag whose text is parsed, then refused unless ``ok``."""

    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {need}")

    return dict(type=convert, default=default)


def _rational(text: str) -> Fraction:
    """``Fraction(text)`` with no exponent: Fraction('1e999999999') builds 10^999999999."""
    if "e" in text.lower():
        raise ValueError(f"{text!r} has an exponent")
    return Fraction(text)


# --p in lowest terms: every exact l_p bracket roots numbers of about
# numerator + 16 * denominator bits to the index denominator, so both are
# capped; the slowest accepted p takes about 0.5 s on thm24, cor25 and
# golay-lp (2 CPUs, Python 3.11), and 1000001/10000 took 4.6 s
P_NUMERATOR_CAP = 10**5
P_DENOMINATOR_CAP = 10**4


def _p_flag(top, need: str) -> tuple:
    def ok(p: Fraction) -> bool:
        small = p.numerator <= P_NUMERATOR_CAP and p.denominator <= P_DENOMINATOR_CAP
        return small and 1 <= p <= top

    need += " with numerator <= 10^5 and denominator <= 10^4 in lowest terms"
    return ("--p", dict(_checked(_rational, ok, need, Fraction(2)), help=f"{need} (default 2)"))


_M17 = ("--m", _checked(int, lambda m: m >= 17, "an integer >= 17", 17))
_M4 = ("--m", _checked(int, lambda m: m >= 1, "a positive integer", 4))
_P = _p_flag(P_NUMERATOR_CAP, "a rational >= 1")
_P_GOLAY = _p_flag(2, "a rational in [1, 2]")
_SEED = ("--seed", dict(type=int, default=0))
_FULL_ENUM = ("--full-enum", dict(action="store_true"))
_BUDGET = ("--budget", _checked(int, lambda b: b >= 1, "a positive integer", DEFAULT_BUDGET))
_TOWER = ("--tower", dict(help="tower manifest (default: bundled)"))

# verify target -> (the flags it reads, run); each run looks its verifier up
# as a module global at call time, so a patched or traced verifier is the one called
THEOREMS = {
    "thm22": (
        (_M17, _SEED),
        lambda a: check_thm22_hypotheses(Thm22Gadget(*cor23_matrices(), a=2, m=a.m, seed=a.seed)),
    ),
    "cor23": (
        (_M17, _SEED, _FULL_ENUM, _BUDGET),
        lambda a: verify_cor23(a.m, a.seed, full_enum=a.full_enum, budget=a.budget),
    ),
    "thm24": ((_M4, _P), lambda a: verify_thm24(build_cor25(a.m), a.p)),
    "cor25": ((_M4, _P), lambda a: verify_cor25(a.m, a.p)),
    "cstar-collapse": ((_SEED,), lambda a: verify_cstar_collapse(seed=a.seed)),
    "dbar-schur": (
        (_TOWER,),
        lambda a: verify_dbar_schur(load_code_tower(a.tower) if a.tower else None),
    ),
    "golay-lp": ((_P_GOLAY,), lambda a: golay_lp_check(a.p)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="codelattice",
        description="Exact lattices from binary linear codes: build, analyze, verify.",
    )
    # nothing reads args.command; the dest names the missing command in the usage error
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, run, fmt: str, flags=(), timing=False) -> None:
        """Add the shared flags; ``run`` handles the command, ``fmt`` is its default format."""
        for flag, spec in flags:
            p.add_argument(flag, **spec)
        p.add_argument("--out", help="write the main output to this file")
        p.add_argument("--format", dest="fmt", choices=("text", "json"))
        p.set_defaults(run=run, fmt=fmt)
        if timing:
            p.add_argument(
                "--no-timing",
                action="store_true",
                help="omit runtime fields for byte-stable output",
            )

    p_info = sub.add_parser("code-info", help="n, k, d, kissing number of an F2 code")
    p_info.add_argument("path")
    common(p_info, _cmd_code_info, "text")

    p_con = sub.add_parser("construct", help="build a lattice and print its HNF basis")
    p_con.add_argument("path", help="F2 matrix file, or a tower manifest for d/d-special/d-bar")
    p_con.add_argument("--construction", required=True, choices=CONSTRUCTIONS)
    common(p_con, _cmd_construct, "text")

    p_an = sub.add_parser("lattice-analyze", help="exact shortest vectors of a Z matrix")
    p_an.add_argument("path")
    common(p_an, _cmd_lattice_analyze, "text", (_BUDGET,))

    p_ver = sub.add_parser("verify", help="run a verification target, exit 0 iff PASS")
    # shared flags live on each target: a flag given to p_ver before the target
    # would be overwritten by the target's default for the same dest
    targets = p_ver.add_subparsers(dest="theorem", required=True)
    for name, (flags, _) in THEOREMS.items():
        common(targets.add_parser(name), _cmd_verify, "json", flags, timing=True)
    return parser


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte.

    With ``indent`` json.dumps runs CPython's pure-Python encoder, so the
    layout is written here: strings go to the C quoting routine json.dumps
    itself uses, ints to ``str`` (``type(x) is int`` keeps True printing
    as true), and any other scalar to json.dumps.
    """
    inner = pad + "  "
    if isinstance(obj, dict):
        items = [
            f"{_quote(k if isinstance(k, str) else json.dumps(k))}: {_dump_json(v, inner)}"
            for k, v in obj.items()
        ]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [str(v) if type(v) is int else _dump_json(v, inner) for v in obj]
        ends = "[]"
    elif type(obj) is int:
        return str(obj)
    elif isinstance(obj, str):
        return _quote(obj)
    else:
        return json.dumps(obj)
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _code_from_file(path: str) -> Code:
    M = read_matrix(path)
    if not isinstance(M, BinaryMatrix):
        raise ParseError(f"{path}: expected an F2 matrix")
    return Code(M)


def _cmd_code_info(args: argparse.Namespace) -> int:
    C = _code_from_file(args.path)
    S = min_weight_codewords(C)
    d = S[0].weight
    sample = [list(c.coords()) for c in S[:5]]
    rep = {
        "n": C.n,
        "k": C.dimension,
        "d": d,
        "kappa0": len(S),
        "min_weight_sample": sample,
    }
    if args.fmt == "json":
        text = _dump_json(rep)
    else:
        lines = [
            f"block length n = {C.n}",
            f"dimension    k = {C.dimension}",
            f"min distance d = {d}",
            f"kissing kappa0 = {len(S)}",
        ]
        for c in sample:
            lines.append("  min-weight word: " + " ".join(str(e) for e in c))
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    name = args.construction
    extras: dict = {}
    if name in ("a", "simplified-d", "c-star"):
        # built at call time, as THEOREMS looks its verifiers up, so a traced construction runs
        build = {"a": construction_a, "simplified-d": simplified_d, "c-star": construction_c_star}
        L = build[name](_code_from_file(args.path))
    elif name == "d":
        L = construction_d(load_matrix_tower(args.path)[1], strict=True)
    elif name == "d-special":
        _, blocks = load_matrix_tower(args.path)
        if len(blocks) < 2:
            raise ParseError("d-special needs at least two blocks")
        mids = blocks[1:-1]
        for i, mid in enumerate(mids, start=1):
            if mid.k != 1:
                raise ParseError(f"middle block {i} must be a single column")
        L = vladut_special_d(blocks[0], [m.column(0) for m in mids], blocks[-1])
    else:  # d-bar
        T = load_code_tower(args.path)
        L = d_bar_span(T)
        ok, wit = _d_bar_verdict(T, L)
        extras["is_lattice"] = ok
        if wit is not None:
            extras["witness"] = list(wit)

    rep = {
        "construction": name,
        "n": L.n,
        "rank": L.rank,
        "determinant": str(determinant(L)),
        **extras,
    }
    if args.fmt == "json":
        rep["basis"] = [list(col) for col in L.basis]
        report = _dump_json(rep)
    elif args.out:
        report = "\n".join(f"{k}: {v}" for k, v in rep.items())
    else:
        # stdout carries the matrix alone, so the report goes to stderr as comments
        sys.stderr.write("".join(f"# {k}: {v}\n" for k, v in rep.items()))
        report = None
    if args.out or report is None:
        _emit(format_z_matrix(L.n, L.basis), args.out)
    if report is not None:
        _emit(report, None)
    return 0


def _cmd_lattice_analyze(args: argparse.Namespace) -> int:
    parsed = read_matrix(args.path)
    if isinstance(parsed, BinaryMatrix):
        raise ParseError(f"{args.path}: expected a Z matrix, found an F2 matrix")
    rows, _, columns = parsed
    L = Lattice.from_generators(rows, columns)
    sv = shortest_vectors(L, budget=args.budget)
    if args.fmt == "json":
        text = _dump_json(sv._asdict())
    else:
        lines = [
            f"rank = {L.rank} of n = {L.n}",
            f"lambda1^2 = {sv.lambda1_sq}",
            f"kappa2 = {sv.kissing}",
        ]
        for v in sv.vectors[:TEXT_VECTOR_CAP]:
            lines.append("  " + " ".join(str(e) for e in v))
        if sv.kissing > TEXT_VECTOR_CAP:
            lines.append(f"  ... ({sv.kissing - TEXT_VECTOR_CAP} more)")
        text = "\n".join(lines)
    _emit(text, args.out)
    return 0


def _report_text(d: dict) -> str:
    lines = [f"theorem: {d['theorem']}"]
    if d["params"]:
        lines.append("params: " + " ".join(f"{k}={v}" for k, v in d["params"].items()))
    parts = (("hypotheses", "name", "witness"), ("conclusions", "claim", "certificate"))
    for part, key, extra in parts:
        if d[part]:
            lines.append(f"{part}:")
            for item in d[part]:
                tag = "pass" if item["pass"] else "FAIL"
                lines.append(f"  [{tag}] {item[key]}")
                if extra in item:
                    lines.append(f"         {extra}: {item[extra]}")
    if d["exact_values"]:
        lines.append("exact values:")
        for k, v in d["exact_values"].items():
            lines.append(f"  {k} = {v}")
    tail = f" ({d['runtime_ms']} ms)" if "runtime_ms" in d else ""
    lines.append(("verdict: PASS" if passed(d) else "verdict: FAIL") + tail)
    return "\n".join(lines)


def _cmd_verify(args: argparse.Namespace) -> int:
    t0 = perf_counter()
    rep = THEOREMS[args.theorem][1](args)
    ms = (perf_counter() - t0) * 1000.0
    if not args.no_timing:
        rep["runtime_ms"] = round(ms, 3)
    _emit(_dump_json(rep) if args.fmt == "json" else _report_text(rep), args.out)
    return 0 if passed(rep) else 1


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (ParseError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (RankTooLarge, QuotientTooLarge, SupportTooLarge, OutputTooLarge) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except EnumerationBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except HypothesesFail as e:
        print(f"error: {e}", file=sys.stderr)
        if e.report is not None:
            print(_dump_json(e.report), file=sys.stderr)
        return 1
    except (ToolkitError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        print(f"error: internal: {type(e).__name__}: {e}", file=sys.stderr)
        return 70


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
