"""Command-line frontend: problem parsing, orchestration, report emission.

Problems are single JSON documents (matrices over cyclotomic fields do not
fit in command-line flags); the task word picks the task and options carry
overrides only. Reports are deterministic: identical problems produce
byte-identical output, cache hot or cold.
"""

from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .bounds import audit, inequality_chain_check, m_bound_check
from .cache import Cache, content_hash
from .cyclo import decode_scalar, is_int
from .errors import InternalInconsistency, InvalidInput, LimitExceeded
from .groups import (
    FiniteGroup,
    IrrepCatalog,
    Representation,
    builtin_group,
    generate_group,
    specialization,
)
from .invariants import InvariantRing, build_E, minimal_generators, noether_number
from .koszul import scan_ceiling, syzygy_degree, tor_complex, tor_table
from .limits import Budget
from .linalg import Matrix
from .schur import (
    cauchy_check,
    domination_check,
    kostka_number,
    lr_coefficient,
    ring_row_bounds,
    stabilization_check,
    tor_row_bounds,
    universal_multiplicities,
)

# the version of the report's layout; cache entries carry their own
FORMAT_VERSION = 1


class Problem:
    __slots__ = (
        "doc",
        "task",
        "group",
        "catalog",
        "rep",
        "p",
        "p_max",
        "g_max",
        "mode",
        "stop",
        "exact_limit",
        "schur_args",
    )

    def __init__(
        self,
        doc: dict,
        task: str,
        group: FiniteGroup,
        catalog: IrrepCatalog | None,
        rep: Representation | None,
        p: int,
        p_max: int,
        g_max: int,
        mode: str,
        stop: int | None,
        exact_limit: int | None,
        schur_args: dict | None,
    ):
        self.doc = doc
        self.task = task
        self.group = group
        self.catalog = catalog
        self.rep = rep
        self.p = p
        self.p_max = p_max
        self.g_max = g_max
        self.mode = mode
        self.stop = stop
        self.exact_limit = exact_limit
        self.schur_args = schur_args

    @property
    def problem_hash(self) -> str:
        return content_hash(self.doc)


def _fail(path: str, message: str):
    raise InvalidInput(f"{path}: {message}")


def _expect(cond: bool, path: str, message: str):
    if not cond:
        _fail(path, message)


def _decode_matrix(obj, path: str, budget: Budget) -> Matrix:
    _expect(isinstance(obj, list) and obj, path, "expected a nonempty list of rows")
    rows = []
    width = None
    for i, row in enumerate(obj):
        _expect(isinstance(row, list), f"{path}[{i}]", "expected a list of entries")
        if width is None:
            width = len(row)
        _expect(len(row) == width, f"{path}[{i}]", f"expected {width} entries")
        rows.append(
            [decode_scalar(x, budget.conductor_limit) for x in row]
        )
    return Matrix.from_rows(rows)


def _parse_group(doc, budget: Budget):
    spec = doc.get("group")
    _expect(spec is not None, "group", "missing")
    if isinstance(spec, str):
        try:
            return builtin_group(spec)
        except InvalidInput:
            _fail("group", f"unknown builtin {spec!r}")
    _expect(isinstance(spec, dict), "group", "expected a builtin name or an object")
    if "permutation_generators" in spec:
        gens = spec["permutation_generators"]
        _expect(isinstance(gens, list) and gens, "group.permutation_generators", "expected a nonempty list")
        perms = []
        for i, p in enumerate(gens):
            _expect(
                isinstance(p, list) and all(is_int(v) for v in p),
                f"group.permutation_generators[{i}]",
                "expected a list of integers (images of 0..n-1)",
            )
            perms.append(tuple(p))
        group = generate_group(perms, budget=budget)
    elif "matrix_generators" in spec:
        gens = spec["matrix_generators"]
        _expect(isinstance(gens, list) and gens, "group.matrix_generators", "expected a nonempty list")
        mats = [
            _decode_matrix(m, f"group.matrix_generators[{i}]", budget)
            for i, m in enumerate(gens)
        ]
        group = generate_group(mats, budget=budget)
    else:
        _fail("group", "expected permutation_generators or matrix_generators")
    catalog = None
    if "catalog" in doc:
        cat = doc["catalog"]
        _expect(
            isinstance(cat, dict) and isinstance(cat.get("irreps"), list),
            "catalog",
            "expected {\"irreps\": [...]}",
        )
        irreps = []
        for i, images in enumerate(cat["irreps"]):
            _expect(isinstance(images, list), f"catalog.irreps[{i}]", "expected generator image list")
            mats = [
                _decode_matrix(m, f"catalog.irreps[{i}][{j}]", budget)
                for j, m in enumerate(images)
            ]
            try:
                irreps.append(Representation.from_generator_images(group, mats))
            except InvalidInput as exc:
                _fail(f"catalog.irreps[{i}]", str(exc))
        try:
            catalog = IrrepCatalog(group, irreps)
        except InvalidInput as exc:
            _fail("catalog", str(exc))
    return group, catalog


def _parse_rep(doc, group, catalog, budget: Budget):
    spec = doc.get("rep")
    if spec is None:
        return None
    _expect(isinstance(spec, dict), "rep", "expected an object")
    if "multiplicities" in spec:
        mults = spec["multiplicities"]
        _expect(
            isinstance(mults, list) and all(is_int(k) for k in mults),
            "rep.multiplicities",
            "expected a list of integers",
        )
        _expect(catalog is not None, "rep.multiplicities", "group has no irreducible catalog")
        _expect(
            len(mults) == len(catalog.irreps),
            "rep.multiplicities",
            f"expected length {len(catalog.irreps)}, got {len(mults)}",
        )
        _expect(all(k >= 0 for k in mults), "rep.multiplicities", "must be nonnegative")
        return specialization(catalog, mults)
    if "generator_images" in spec:
        images = spec["generator_images"]
        _expect(isinstance(images, list), "rep.generator_images", "expected a list of matrices")
        mats = [
            _decode_matrix(m, f"rep.generator_images[{i}]", budget)
            for i, m in enumerate(images)
        ]
        try:
            return Representation.from_generator_images(group, mats)
        except InvalidInput as exc:
            _fail("rep.generator_images", str(exc))
    _fail("rep", "expected multiplicities or generator_images")


def parse_problem(doc: dict, task: str, budget: Budget) -> Problem:
    """The problem a JSON object states, run as `task` on `budget`. The
    document's own "task" field is not read: it only enters the problem
    hash."""
    group, catalog = _parse_group(doc, budget)
    rep = _parse_rep(doc, group, catalog, budget)
    p = doc.get("p", 1)
    _expect(is_int(p) and p >= 1, "p", "expected a positive integer")
    p_max = doc.get("p_max", 12 if task == "chain" else p)
    _expect(is_int(p_max) and p_max >= p - 1, "p_max", "expected an integer >= p - 1")
    g_max = doc.get("g_max", 12)
    _expect(is_int(g_max) and g_max >= 1, "g_max", "expected a positive integer")
    mode = doc.get("mode", "minimal")
    _expect(mode in ("minimal", "full"), "mode", "expected minimal or full")
    stop = doc.get("stop")
    _expect(stop is None or (is_int(stop) and stop >= 0), "stop", "expected a nonnegative integer")
    exact_limit = doc.get("exact_limit")
    _expect(
        exact_limit is None or (is_int(exact_limit) and exact_limit >= 0),
        "exact_limit",
        "expected a nonnegative integer",
    )
    schur_args = doc.get("schur")
    _expect(
        schur_args is None or isinstance(schur_args, dict),
        "schur",
        "expected an object",
    )
    return Problem(
        doc=doc,
        task=task,
        group=group,
        catalog=catalog,
        rep=rep,
        p=p,
        p_max=p_max,
        g_max=g_max,
        mode=mode,
        stop=stop,
        exact_limit=exact_limit,
        schur_args=schur_args,
    )


# -- task handlers ----------------------------------------------------------------


def _need_catalog(problem: Problem):
    if problem.catalog is None:
        _fail("catalog", f"task {problem.task!r} needs an irreducible catalog "
              "(use a builtin group or supply one)")
    return problem.catalog


def _need_rep(problem: Problem):
    if problem.rep is None:
        _fail("rep", f"task {problem.task!r} needs a representation")
    return problem.rep


def _noether(problem: Problem, budget: Budget):
    """beta(G), from the problem's irreducible catalog where it has one."""
    source = problem.group if problem.catalog is None else problem.catalog
    return noether_number(source, problem.exact_limit, budget)


def _ring(problem: Problem, options) -> InvariantRing:
    """The invariant ring of the problem's representation on the run's
    budget and cache."""
    return InvariantRing(_need_rep(problem), budget=options.budget, cache=options.cache)


def _run_group(problem: Problem, options) -> dict:
    group = problem.group
    out = {
        "order": group.order,
        "class_count": group.class_count,
        "class_sizes": list(group.class_sizes),
        "exponent": group.exponent(),
    }
    if problem.catalog is not None:
        catalog = problem.catalog
        out["catalog"] = {
            "degrees": list(catalog.degrees),
            "m": catalog.m,
            "sum_of_squared_degrees": sum(d * d for d in catalog.degrees),
            # a catalog that exists has passed its validation
            "validation": {"passed": True, "failures": []},
        }
        out["m_bound"] = m_bound_check(group.class_count, group.order, catalog.m)
    return out


def _run_invariants(problem: Problem, options) -> dict:
    ring = _ring(problem, options)
    noe = _noether(problem, options.budget)
    stop = problem.stop if problem.stop is not None else noe.value
    ring.precompute(range(stop + 1))
    if stop < noe.value:
        sys.stderr.write(
            f"syzlab: warning: scan ceiling {stop} is below the group's generator-degree "
            f"ceiling {noe.value}; generators above it would be missed\n"
        )
    gens = minimal_generators(ring, stop=stop)
    return {
        "molien": ring.molien(stop)[: stop + 1],
        "dimensions": [ring.dim(d) for d in range(stop + 1)],
        "generator_degrees": gens.degrees(),
        "beta_V": gens.beta_V,
        "scanned_up_to": stop,
        "beta_used": {"value": noe.value, "exact": noe.exact},
    }


def _run_noether(problem: Problem, options) -> dict:
    noe = _noether(problem, options.budget)
    return {
        "beta": noe.value,
        "exact": noe.exact,
        "method": "regular_representation" if noe.exact else "order_fallback",
    }


def _syzygy_complex(problem: Problem, options):
    """(R, its generator space E, the complex `tor_complex` builds on them,
    the Noether result). R refuses the top degree of the scan up front,
    whichever complex runs, so a refusal does not depend on the route."""
    ring = _ring(problem, options)
    noe = _noether(problem, options.budget)
    # the scan walks a guard band of beta degrees above the ceiling
    ring.refuse_over_budget(scan_ceiling(noe.value, ring.nvars, problem.p_max) + noe.value)
    gens = build_E(ring, problem.mode, noe)
    return ring, gens, tor_complex(ring, gens, noe.value), noe


def _run_syzygies(problem: Problem, options) -> dict:
    _, gens, cx, noe = _syzygy_complex(problem, options)
    table = tor_table(cx, p_max=problem.p_max)
    s_values = {}
    for p in range(1, problem.p_max + 1):
        s = syzygy_degree(cx, p)
        s_values[str(p)] = s if s is not None else "none"
    return {
        "mode": problem.mode,
        "generators": {
            "count": len(gens.elements),
            "degrees": gens.degrees(),
        },
        "beta_used": {"value": noe.value, "exact": noe.exact},
        "tor_table": table,
        "s": s_values,
    }


def _run_bounds(problem: Problem, options):
    catalog = _need_catalog(problem)
    ring, gens, cx, noe = _syzygy_complex(problem, options)
    reports, findings = audit(catalog, ring, gens, cx, range(1, problem.p_max + 1), noe)
    return {"reports": reports}, findings


def _run_universal(problem: Problem, options) -> dict:
    catalog = _need_catalog(problem)
    noe = _noether(problem, options.budget)
    beta, m, g, p = noe.value, catalog.m, problem.group.order, problem.p
    # domination_check assembles the specialization only inside its Tor
    # gate: the images grow with p, and the report needs no more than the
    # multiplicities
    mults = universal_multiplicities(catalog, noe, p)
    dimension = sum(k * d for k, d in zip(mults, catalog.degrees))
    out = {
        "p": p,
        "multiplicities": list(mults),
        "dimension": dimension,
        "dimension_formula": {
            "beta_m_p_plus_g": beta * m * p + g,
            "matches": dimension == beta * m * p + g,
        },
        "beta_used": {"value": noe.value, "exact": noe.exact},
    }
    res = domination_check(catalog, noe, p, samples=[], budget=options.budget)
    out["s_prime_universal"] = (
        "skipped (outside budget)" if res.get("skipped") else res["s_prime_universal"]
    )
    return out


def _int_list(value, path: str) -> tuple:
    _expect(
        isinstance(value, list) and all(is_int(x) and x >= 0 for x in value),
        path,
        "expected a list of nonnegative integers",
    )
    return tuple(value)


def _partition(value, path: str) -> tuple:
    lam = _int_list(value, path)
    _expect(all(lam) and list(lam) == sorted(lam, reverse=True), path, "expected a partition")
    return lam


def _run_schur(problem: Problem, options) -> dict:
    args = problem.schur_args
    _expect(args is not None and "check" in args, "schur.check", "missing")
    check = args["check"]
    budget = options.budget

    def int_arg(name, default, minimum=0):
        value = args.get(name, default)
        _expect(
            is_int(value) and value >= minimum,
            f"schur.{name}",
            f"expected an integer >= {minimum}",
        )
        return value

    if check == "kostka":
        lam = _partition(args.get("shape", []), "schur.shape")
        mu = _int_list(args.get("content", []), "schur.content")
        return {"check": check, "value": kostka_number(lam, mu)}
    if check == "lr":
        lam, mu, nu = (_partition(args.get(k, []), f"schur.{k}") for k in ("lam", "mu", "nu"))
        return {"check": check, "value": lr_coefficient(lam, mu, nu)}
    if check == "cauchy":
        catalog = _need_catalog(problem)
        factor = int_arg("factor", 0)
        n = len(catalog.irreps)
        _expect(factor < n, "schur.factor", f"expected an irreducible index below {n}")
        res = cauchy_check(catalog, factor, int_arg("dim", 2), int_arg("degree", 2))
        return {"check": check, **res}
    if check == "row-bounds-ring":
        catalog = _need_catalog(problem)
        return {
            "check": check,
            **ring_row_bounds(catalog, int_arg("max_degree", 4), budget=budget),
        }
    if check == "row-bounds-tor":
        catalog = _need_catalog(problem)
        noe = _noether(problem, budget)
        return {
            "check": check,
            **tor_row_bounds(catalog, noe, int_arg("p", problem.p, 1), budget=budget),
        }
    if check == "stabilization":
        catalog = _need_catalog(problem)
        noe = _noether(problem, budget)
        mults = args.get("multiplicities")
        if mults is not None:
            mults = _int_list(mults, "schur.multiplicities")
        return {
            "check": check,
            **stabilization_check(
                catalog,
                noe,
                int_arg("p", problem.p, 1),
                int_arg("degree", 0),
                budget=budget,
                base_multiplicities=mults,
            ),
        }
    if check == "domination":
        catalog = _need_catalog(problem)
        noe = _noether(problem, budget)
        samples = args.get("samples", [])
        _expect(isinstance(samples, list), "schur.samples", "expected a list")
        samples = [_int_list(s, f"schur.samples[{i}]") for i, s in enumerate(samples)]
        return {
            "check": check,
            **domination_check(
                catalog, noe, int_arg("p", problem.p, 1), samples, budget=budget
            ),
        }
    _fail("schur.check", f"unknown check {check!r}")


def _run_chain(problem: Problem, options) -> dict:
    return inequality_chain_check(g_max=problem.g_max, p_max=problem.p_max)


# task word -> handler: the parser, the usage text and `run` read this table
TASKS = {
    "group": _run_group,
    "invariants": _run_invariants,
    "noether": _run_noether,
    "syzygies": _run_syzygies,
    "bounds": _run_bounds,
    "universal": _run_universal,
    "schur": _run_schur,
    "chain": _run_chain,
}


def run(problem: Problem, options):
    """Dispatch to the task pipeline; returns (report dict, findings list)."""
    findings = []
    result = TASKS[problem.task](problem, options)
    if isinstance(result, tuple):
        result, findings = result
    budget = options.budget
    report = {
        "tool": "syzlab",
        "version": __version__,
        "format_version": FORMAT_VERSION,
        "task": problem.task,
        "problem_hash": problem.problem_hash,
        "parameters": {
            "p": problem.p,
            "p_max": problem.p_max,
            "mode": problem.mode,
            "stop": problem.stop,
            "exact_limit": (
                problem.exact_limit
                if problem.exact_limit is not None
                else budget.noether_exact_limit
            ),
            # cache location is an execution detail: it must not
            # influence results, so it stays out of the report bytes
            "budget": budget.as_json(),
        },
        "results": result,
    }
    return report, findings


# -- emission --------------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise InvalidInput(f"unknown format {fmt!r}")


def _syzygies_csv(writer, results: dict):
    writer.writerow(["p", "d", "dim"])
    for row in results["tor_table"]["rows"]:
        writer.writerow(row)


def _bounds_csv(writer, results: dict):
    writer.writerow(["p", "s_value", "bound", "value", "verdict"])
    for rep in results["reports"]:
        for name in ("derksen_bound", "universal_bound", "cubic_bound", "scan_ceiling"):
            writer.writerow(
                [
                    rep["p"],
                    rep["s_value"],
                    name,
                    rep["bounds"][name],
                    rep["verdicts"][name],
                ]
            )


# task word -> CSV table writer; tasks without one are refused before they run
CSV_WRITERS = {"syzygies": _syzygies_csv, "bounds": _bounds_csv}


def _csv_writer(task: str):
    write = CSV_WRITERS.get(task)
    if write is None:
        raise InvalidInput("csv output covers the syzygies and bounds tables only")
    return write


def _emit_csv(report: dict) -> str:
    import csv  # only csv output needs it; every other run skips the import

    buf = io.StringIO()
    _csv_writer(report["task"])(csv.writer(buf, lineterminator="\n"), report["results"])
    return buf.getvalue()


def _render_value(value, indent: int = 0) -> list:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k in sorted(value):
            v = value[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}- **{k}**:")
                lines.extend(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}- **{k}**: {v}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def _emit_markdown(report: dict) -> str:
    lines = [
        f"# syzlab {report['task']} report",
        "",
        f"- tool: syzlab {report['version']} (format {report['format_version']})",
        f"- problem: `{report['problem_hash']}`",
        "",
        "## Parameters",
        "",
    ]
    lines.extend(_render_value(report["parameters"]))
    lines.extend(["", "## Results", ""])
    lines.extend(_render_value(report["results"]))
    return "\n".join(lines) + "\n"


# -- entry point -------------------------------------------------------------------------


# Each option maps to (dest, kind, default). A kind is `int`, a tuple of
# choices, None for a flag, or the metavar of a free-text value. The table
# is the parser, the usage text and the README synopsis at once.
OPTION_TABLE = {
    "--input": ("input", "FILE", None),
    "--p": ("p", int, None),
    "--p-max": ("p_max", int, None),
    "--mode": ("mode", ("minimal", "full"), None),
    "--format": ("format", ("json", "csv", "markdown"), "json"),
    "--cache-dir": ("cache_dir", "DIR", None),
    "--no-cache": ("no_cache", None, False),
    "--budget-level": ("budget_level", ("small", "default", "large"), "default"),
}


def option_synopsis(option: str) -> str:
    """How one option is written in the usage text: `--p N`, `--mode
    minimal|full`, `--no-cache`."""
    _, kind, _ = OPTION_TABLE[option]
    if kind is None:
        return option
    if kind is int:
        return f"{option} N"
    return f"{option} {kind if isinstance(kind, str) else '|'.join(kind)}"


def usage() -> str:
    """The synopsis, wrapped at 79 columns, then the task words."""
    words = [
        option_synopsis(o) if o == "--input" else f"[{option_synopsis(o)}]"
        for o in OPTION_TABLE
    ]
    lines, line = [], "usage: syzlab TASK"
    for word in words:
        if len(line) + 1 + len(word) > 79:
            lines.append(line)
            line = " " * 13
        line += " " + word
    lines.append(line)
    lines.append(f"tasks: {', '.join(TASKS)}")
    return "\n".join(lines) + "\n"


def _usage_error(message: str):
    sys.stderr.write(usage())
    sys.stderr.write(f"syzlab: error: {message}\n")
    raise SystemExit(1)


def parse_args(argv) -> SimpleNamespace:
    """The task word, then options in any order as `--opt value` or
    `--opt=value`; a repeated option keeps its last value. `-h`/`--help`
    prints the usage and exits 0; a usage error prints the usage and one
    `syzlab: error:` line to stderr and exits 1."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(usage())
        raise SystemExit(0)
    if not argv:
        _usage_error("the following arguments are required: TASK")
    if argv[0] not in TASKS:
        _usage_error(f"invalid task {argv[0]!r} (choose from {', '.join(TASKS)})")
    args = {dest: default for dest, _, default in OPTION_TABLE.values()}
    args["task"] = argv[0]
    words = iter(argv[1:])
    for word in words:
        option, eq, value = word.partition("=")
        if option not in OPTION_TABLE:
            _usage_error(f"unrecognized argument {word!r}")
        dest, kind, _ = OPTION_TABLE[option]
        if kind is None:
            if eq:
                _usage_error(f"option {option} takes no value")
            args[dest] = True
            continue
        if not eq:
            value = next(words, None)
            if value is None or (value.startswith("-") and not value[1:].isdigit()):
                _usage_error(f"option {option} expects a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"option {option}: invalid int value {value!r}")
        elif isinstance(kind, tuple) and value not in kind:
            _usage_error(
                f"option {option}: invalid choice {value!r} (choose from {', '.join(kind)})"
            )
        args[dest] = value
    if args["input"] is None:
        _usage_error("the following arguments are required: --input")
    return SimpleNamespace(**args)


class Options:
    __slots__ = ("budget", "cache")

    def __init__(self, budget: Budget, cache: Cache | None):
        self.budget = budget
        self.cache = cache


def _resolve_cache(args) -> Cache | None:
    if args.no_cache:
        return None
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    directory = (
        args.cache_dir
        or os.environ.get("SYZLAB_CACHE_DIR")
        or os.path.join(base, "syzlab")
    )
    try:
        return Cache(directory)
    except OSError as exc:
        sys.stderr.write(f"syzlab: cache disabled: {exc}\n")
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            raise InvalidInput(f"input file not found: {args.input}")
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"input is not valid JSON: {exc}")
        except (OSError, ValueError, RecursionError) as exc:
            raise InvalidInput(f"cannot read input {args.input}: {type(exc).__name__}: {exc}")
        budget = Budget.preset(args.budget_level)
        # the overrides below index the document, so check its shape first
        _expect(isinstance(doc, dict), "document", "expected a JSON object")
        if args.p is not None:
            doc["p"] = args.p
        if args.p_max is not None:
            doc["p_max"] = args.p_max
        if args.mode is not None:
            doc["mode"] = args.mode
        if args.p is not None and args.p_max is None and is_int(doc.get("p_max")):
            doc["p_max"] = max(doc["p_max"], args.p)
        problem = parse_problem(doc, task=args.task, budget=budget)
        if args.format == "csv":
            _csv_writer(problem.task)
        options = Options(budget=budget, cache=_resolve_cache(args))
        report, findings = run(problem, options)
        sys.stdout.write(emit_report(report, args.format))
        if findings:
            findings_path = os.path.join(
                os.path.dirname(os.path.abspath(args.input)), "findings.json"
            )
            with open(findings_path, "w", encoding="utf-8") as fh:
                json.dump({"findings": findings}, fh, sort_keys=True, indent=2)
                fh.write("\n")
            sys.stderr.write(f"conjecture findings written to {findings_path}\n")
        return 0
    except InvalidInput as exc:
        sys.stderr.write(f"syzlab: invalid input: {exc}\n")
        return 1
    except LimitExceeded as exc:
        sys.stderr.write(f"syzlab: computation limit exceeded: {exc}\n")
        return 2
    except InternalInconsistency as exc:
        sys.stderr.write(f"syzlab: internal inconsistency: {exc}\n")
        return 3
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        sys.stderr.write(f"syzlab: unexpected error: {type(exc).__name__}: {message}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
