"""Spans around the public functions of every ``codelattice`` module.

``Tracer.install`` replaces each target function with a wrapper at every
module attribute that holds the same object, so ``from .zlattice import
lll_reduce`` copies in other modules are caught too; methods are replaced
on their class.  Spans stay in flat in-memory arrays until ``write_jsonl``.
Work counts come from each call's arguments and result, never from inside
the program.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

import oracles

MODULES = ("cli", "constructions", "gadgets", "gf2core", "matio", "zlattice")

# span name -> layer; a layer's time is the self time of its spans
TARGETS = {
    "zlattice.lll_reduce": "zlattice.lll",
    "zlattice.shortest_vectors": "zlattice.enum",
    "zlattice.vectors_up_to": "zlattice.enum",
    "zlattice.Lattice.from_generators": "zlattice.hnf",
    "zlattice.hnf": "zlattice.hnf",
    "zlattice.scale": "zlattice.hnf",
    "zlattice.Lattice.contains": "zlattice.contains",
    "zlattice.contains": "zlattice.contains",
    "zlattice.determinant": "zlattice.det",
    "zlattice.adjugate_solve": "zlattice.adjugate",
    "zlattice.lp_norm": "zlattice.lp",
    "zlattice.lp_power_sum_cmp": "zlattice.lp",
    "zlattice.iroot": "zlattice.lp",
    "gf2core.min_distance": "gf2core.sweep",
    "gf2core.min_weight_codewords": "gf2core.sweep",
    "gf2core.code_kissing_number": "gf2core.sweep",
    "gf2core.Code.contains": "gf2core.contains",
    "gf2core.rank": "gf2core.linalg",
    "gf2core.kernel_basis": "gf2core.linalg",
    "gf2core.complete_to_full_rank": "gf2core.linalg",
    "gf2core.is_subcode": "gf2core.linalg",
    "gf2core.is_schur_closed_tower": "gf2core.linalg",
    "gf2core.schur_product": "gf2core.linalg",
    "gadgets.ternary_sign_search": "gadgets.sign_search",
    "gadgets.verify_cor23": "gadgets.verify_self",
    "gadgets.check_thm22_hypotheses": "gadgets.verify_self",
    "gadgets.check_thm24_hypotheses": "gadgets.verify_self",
    "gadgets.build_cor23": "gadgets.verify_self",
    "gadgets.build_cor25": "gadgets.verify_self",
    "gadgets.verify_thm24": "gadgets.verify_self",
    "gadgets.verify_cor25": "gadgets.verify_self",
    "gadgets.golay_lp_check": "gadgets.verify_self",
    "gadgets.verify_cstar_collapse": "gadgets.verify_self",
    "gadgets.verify_dbar_schur": "gadgets.verify_self",
    "gadgets.min_m": "gadgets.verify_self",
    "gadgets.stack_with_replication": "gadgets.verify_self",
    "constructions.construction_a": "constructions.build",
    "constructions.construction_d": "constructions.build",
    "constructions.vladut_special_d": "constructions.build",
    "constructions.simplified_d": "constructions.build",
    "constructions.construction_c_star": "constructions.build",
    "constructions.c_star_definitional": "constructions.build",
    "constructions.d_bar_span": "constructions.build",
    "constructions.construction_a_member": "constructions.build",
    "constructions.embed_sum_identity_check": "constructions.build",
    "constructions.d_bar_is_lattice": "constructions.coset_walk",
    "constructions.d_bar_member": "constructions.coset_walk",
    "matio.parse_matrix": "matio.parse",
    "matio.read_matrix": "matio.parse",
    "matio.read_tower_manifest": "matio.parse",
    "matio.load_code_tower": "matio.parse",
    "matio.load_matrix_tower": "matio.parse",
    "matio.golay_code": "matio.parse",
    "matio.cor23_matrices": "matio.parse",
    "matio.cor25_matrices": "matio.parse",
    "matio.nonclosed_tower": "matio.parse",
    "matio.format_z_matrix": "matio.format",
    "matio.format_f2_matrix": "matio.format",
    "matio.write_z_matrix": "matio.format",
    "matio.write_f2_matrix": "matio.format",
    "cli.main": "cli.self",
}

LAYERS = sorted(set(TARGETS.values()))

# work counts, each derived from the arguments and result of one call
COUNTS = (
    "zlattice.lll_calls",
    "zlattice.lll_rank_sum",
    "zlattice.enum_calls",
    "zlattice.enum_vectors",
    "zlattice.budget_exceeded",
    "zlattice.hnf_calls",
    "zlattice.hnf_generators",
    "zlattice.contains_calls",
    "zlattice.det_calls",
    "zlattice.adjugate_calls",
    "zlattice.lp_calls",
    "gadgets.sign_search_calls",
    "gadgets.sign_patterns",
    "gf2core.sweep_calls",
    "gf2core.codewords_swept",
    "gf2core.contains_calls",
    "constructions.cosets_walked",
    "matio.parse_calls",
)


def _sign_patterns(args, kwargs) -> int:
    """Sigma 2^wt over the candidate supports of ternary_sign_search(L, C, bound)."""
    code = args[1] if len(args) > 1 else kwargs["C"]
    bound = args[2] if len(args) > 2 else kwargs["bound"]
    counts = oracles.weight_distribution(code.n, [v.bits for v in code.basis()])
    return sum(a << w for w, a in enumerate(counts) if 0 < w <= bound * bound)


def _counter(name: str):
    """(args, kwargs, result) -> [(count name, increment)] for a span name."""
    calls = lambda key: (lambda a, k, r: ((key, 1),))
    table = {
        "zlattice.lll_reduce": lambda a, k, r: (
            ("zlattice.lll_calls", 1), ("zlattice.lll_rank_sum", a[0].rank)),
        "zlattice.shortest_vectors": lambda a, k, r: (
            ("zlattice.enum_calls", 1), ("zlattice.enum_vectors", r.kissing)),
        "zlattice.vectors_up_to": lambda a, k, r: (
            ("zlattice.enum_calls", 1), ("zlattice.enum_vectors", len(r))),
        "zlattice.Lattice.from_generators": lambda a, k, r: (
            ("zlattice.hnf_calls", 1), ("zlattice.hnf_generators", len(a[2]))),
        "zlattice.Lattice.contains": calls("zlattice.contains_calls"),
        "zlattice.determinant": calls("zlattice.det_calls"),
        "zlattice.adjugate_solve": calls("zlattice.adjugate_calls"),
        "zlattice.lp_norm": calls("zlattice.lp_calls"),
        "zlattice.lp_power_sum_cmp": calls("zlattice.lp_calls"),
        "gadgets.ternary_sign_search": lambda a, k, r: (
            ("gadgets.sign_search_calls", 1), ("gadgets.sign_patterns", _sign_patterns(a, k))),
        "gf2core.min_distance": lambda a, k, r: (
            ("gf2core.sweep_calls", 1), ("gf2core.codewords_swept", 1 << a[0].dimension)),
        "gf2core.min_weight_codewords": lambda a, k, r: (
            ("gf2core.sweep_calls", 1), ("gf2core.codewords_swept", 1 << a[0].dimension)),
        "gf2core.Code.contains": calls("gf2core.contains_calls"),
        "constructions.d_bar_member": calls("constructions.cosets_walked"),
        "matio.parse_matrix": calls("matio.parse_calls"),
    }
    return table.get(name)


class Tracer:
    """Installs span wrappers, keeps spans and per-op work counts."""

    def __init__(self, package):
        self.package = package
        self.names = list(TARGETS)
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("H")
        self.op = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counts: list[dict[str, int]] = []  # one dict per op
        self._restore: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op_id += 1
        self.counts.append(dict.fromkeys(COUNTS, 0))

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [self.package] + [sys.modules[f"{pkg}.{m}"] for m in MODULES]
        for idx, span in enumerate(self.names):
            mod_name, _, attr = span.partition(".")
            home = sys.modules[f"{pkg}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(idx, raw.__func__, span))
                else:
                    wrapped = self._wrap(idx, raw, span)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(idx, orig, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapped)
        self._wrap_codewords()

    def _wrap_codewords(self) -> None:
        """Code.codewords is a generator: count its sweep, record no span.

        Its time is spent while the caller iterates, so it stays in the
        caller's self time.
        """
        code_cls = sys.modules[f"{self.package.__name__}.gf2core"].Code
        orig = code_cls.__dict__["codewords"]
        tracer = self

        def codewords(code):
            c = tracer.counts[tracer.op_id]
            c["gf2core.sweep_calls"] += 1
            c["gf2core.codewords_swept"] += 1 << code.dimension
            return orig(code)

        self._restore.append((code_cls, "codewords", orig))
        code_cls.codewords = codewords

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _wrap(self, idx: int, fn, span: str):
        start, end, parent, name, op = self.start, self.end, self.parent, self.name, self.op
        stack = self.stack
        counter = _counter(span)
        budget_error = self.package.EnumerationBudgetExceeded
        materialize = span == "zlattice.Lattice.from_generators"
        tracer = self

        def wrapper(*args, **kwargs):
            if materialize:  # count generators without consuming an iterator
                args = args[:2] + (list(args[2]),)
            sid = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            name.append(idx)
            op.append(tracer.op_id)
            stack.append(sid)
            start[sid] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                tracer.counts[tracer.op_id]["zlattice.budget_exceeded"] += 1
                raise
            finally:
                end[sid] = perf_counter_ns()
                stack.pop()
            if counter is not None:
                c = tracer.counts[tracer.op_id]
                for key, inc in counter(args, kwargs, result):
                    c[key] += inc
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def layer_self_ns(self, ops: int) -> tuple[dict[str, int], dict[str, int]]:
        """(self time per layer, span count per layer) over the first ``ops`` ops."""
        n = len(self.start)
        child = [0] * n
        parent, start, end = self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        layer_of = [TARGETS[s] for s in self.names]
        self_ns = dict.fromkeys(LAYERS, 0)
        spans = dict.fromkeys(LAYERS, 0)
        for i in range(n):
            if self.op[i] >= ops:
                continue
            layer = layer_of[self.name[i]]
            self_ns[layer] += end[i] - start[i] - child[i]
            spans[layer] += 1
        return self_ns, spans

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "op": self.op[i],
                }, separators=(",", ":")) + "\n")
