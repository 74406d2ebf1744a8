"""Wrapper tracer for one traced syzlab child process.

`Tracer.install()` replaces each traced function at every place it is
looked up: a module-level function is replaced in every `syzlab` module
that binds it (so `syzlab.koszul.rank` is wrapped as well as
`syzlab.linalg.rank`), a method on its class. The engine itself is not
changed.

Spans are aggregated per layer as they close, not stored one by one:
some layers are entered about 10^5 times in one call. A layer's self time
is the time inside it minus the time inside traced layers it called. The
counts repeat exactly on identical inputs.
"""

import os
import sys
import time
from collections import Counter

# (layer, "module:attribute" or "module:Class.method", patch every binding)
LAYERS = (
    ("linalg.rank", "linalg:rank", True),
    ("linalg.column_echelon_basis", "linalg:column_echelon_basis", True),
    ("linalg.span_add", "linalg:Span.add", True),
    ("linalg.matmul", "linalg:Matrix.__matmul__", True),
    ("invariants.block_basis_generic", "invariants:InvariantRing._block_basis_generic", True),
    ("invariants.block_basis_monomial", "invariants:InvariantRing._block_basis_monomial", True),
    ("invariants.coords_in_basis", "invariants:InvariantRing.coords_in_basis", True),
    ("invariants.minimal_generators", "invariants:minimal_generators", True),
    ("invariants.noether_number", "invariants:noether_number", True),
    ("invariants.molien_series", "invariants:molien_series", True),
    ("koszul.chain_blocks", "koszul:KoszulComplex.chain_blocks", True),
    ("koszul.differential", "koszul:KoszulComplex.differential", True),
    ("koszul.tor_data", "koszul:KoszulComplex.tor_data", True),
    # only the multiplications made while assembling differentials
    ("koszul.poly_mul", "koszul:poly_mul", False),
    ("schur.domination_check", "schur:domination_check", True),
    ("schur.dominant_weights", "schur:dominant_weights", True),
    ("schur.schur_multiplicities", "schur:schur_multiplicities", True),
    ("cache.get", "cache:Cache.get", True),
    ("cache.put", "cache:Cache.put", True),
    ("groups.builtin_group", "groups:builtin_group", True),
    ("groups.generate_group", "groups:generate_group", True),
    ("groups.validate_irrep_catalog", "groups:validate_irrep_catalog", True),
    ("cli.parse_problem", "cli:parse_problem", True),
    ("cli.emit_report", "cli:emit_report", True),
)


class Tracer:
    def __init__(self):
        self.layers = {}  # layer -> [calls, self seconds]
        self.counts = Counter()
        self.missing = []
        self.stack = []  # open spans: [child seconds, layer, args]
        self._ranked = {}  # id -> matrix; holding it keeps the id unique
        self._differentials = set()
        self._cyclotomic = None

    # -- installation ----------------------------------------------------------

    def install(self):
        import syzlab.cli  # noqa: F401  (loads every engine module)
        from syzlab.cyclo import Cyclotomic

        self._cyclotomic = Cyclotomic
        modules = [m for n, m in sys.modules.items() if n == "syzlab" or n.startswith("syzlab.")]
        hooks = {
            "linalg.rank": self._on_rank,
            "linalg.column_echelon_basis": self._on_echelon,
            "linalg.span_add": self._on_span_add,
            "invariants.block_basis_generic": self._on_block_generic,
            "koszul.chain_blocks": self._on_chain_blocks,
            "koszul.differential": self._on_differential,
            "cache.get": self._on_cache_get,
            "cache.put": self._on_cache_put,
        }
        for layer, target, everywhere in LAYERS:
            module_name, _, attr = target.partition(":")
            module = sys.modules[f"syzlab.{module_name}"]
            cls_name, _, name = attr.rpartition(".")
            owner = getattr(module, cls_name, None) if cls_name else module
            original = getattr(owner, name, None)
            if original is None:
                self.missing.append(layer)
                continue
            route = self._route_matmul if layer == "linalg.matmul" else None
            wrapper = self._wrap(original, layer, hooks.get(layer), route)
            if cls_name or not everywhere:
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for bound_name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, bound_name, wrapper)

    def _wrap(self, fn, layer, hook, route):
        stack, layers, now = self.stack, self.layers, time.perf_counter

        def wrapper(*args, **kwargs):
            name = route() if route is not None else layer
            frame = [0.0, name, args]
            stack.append(frame)
            t0 = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = now()
                stack.pop()
                stat = layers.get(name)
                if stat is None:
                    stat = layers[name] = [0, 0.0]
                stat[0] += 1
                stat[1] += t1 - t0 - frame[0]
            if hook is not None:
                hook(args, result)
            if stack:
                stack[-1][0] += now() - t0
            return result

        return wrapper

    # -- counters (run after the span closes, outside its self time) -----------

    def _route_matmul(self):
        # the d^2 = 0 check is the product taken directly inside tor_data
        if self.stack and self.stack[-1][1] == "koszul.tor_data":
            return "koszul.d2_check"
        return "linalg.matmul"

    def _on_rank(self, args, result):
        m = args[0]
        c = self.counts
        c["linalg.rank.cells"] += m.rows * m.cols
        nnz = 0
        cyclotomic = False
        cyc_type = self._cyclotomic
        for row in m.data:
            for x in row:
                if x:
                    nnz += 1
                    if type(x) is cyc_type:
                        cyclotomic = True
        c["linalg.rank.nnz"] += nnz
        c["linalg.rank.cyclotomic_calls"] += cyclotomic
        if self._ranked.get(id(m)) is m:
            c["linalg.rank.repeat_calls"] += 1
        else:
            self._ranked[id(m)] = m

    def _on_echelon(self, args, result):
        m = args[0]
        self.counts["linalg.column_echelon_basis.cells"] += m.rows * m.cols

    def _on_span_add(self, args, result):
        self.counts["linalg.span_add.grew"] += bool(result)

    def _on_block_generic(self, args, result):
        self.counts["invariants.block_basis_generic.monomials"] += len(args[3])

    def _on_chain_blocks(self, args, result):
        # tor_data reads the source chain space at its own (p, d) first;
        # its cached repeats return before that read
        if self.stack:
            _, name, caller_args = self.stack[-1]
            if (
                name == "koszul.tor_data"
                and caller_args[0] is args[0]
                and tuple(caller_args[1:3]) == tuple(args[1:3])
            ):
                self.counts["koszul.tor_data.blocks"] += len(result)

    def _on_differential(self, args, result):
        key = (args[0], args[1], args[2])
        if key not in self._differentials:
            self._differentials.add(key)
            self.counts["koszul.differential.blocks"] += len(result)

    def _on_cache_get(self, args, result):
        self.counts["cache.get.misses" if result is None else "cache.get.hits"] += 1

    def _on_cache_put(self, args, result):
        cache, key = args[0], args[1]
        self.counts["cache.put.bytes"] += os.path.getsize(cache._path(key))

    def snapshot(self) -> dict:
        return {"layers": self.layers, "counts": dict(self.counts), "missing": self.missing}
