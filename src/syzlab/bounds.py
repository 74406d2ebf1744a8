"""Scalar degree bounds and the audit of computed syzygy degrees.

Three bounds are compared against each computed degree: the open (p+1)g
conjecture, the representation-independent bound beta^2*m*p + delta_p, and
its cubic corollary p*g^3. The last two are proven, so an apparent
violation aborts as a bug; a conjecture violation is preserved as a
finding and never crashes the run.
"""

from __future__ import annotations

from .errors import InternalInconsistency
from .groups import IrrepCatalog
from .invariants import GeneratorSet, InvariantRing, NoetherResult, minimal_generators
from .koszul import KoszulComplex, scan_ceiling, syzygy_degree


def compute_bounds(g: int, n: int, m: int, beta: int, dim_v: int, p: int) -> dict:
    """All scalar bounds for one homological degree, as exact integers."""
    delta_p = (beta - 1) * g - (m - 1) * beta * p
    universal_bound = beta * beta * m * p + delta_p
    if (beta - 1) * (beta * m * p + g) + beta * p != universal_bound:
        raise InternalInconsistency("bound identity failed; integer arithmetic bug")
    return {
        "delta_p": delta_p,
        "universal_bound": universal_bound,
        "cubic_bound": p * g**3,
        "derksen_bound": (p + 1) * g,
        "scan_ceiling": scan_ceiling(beta, dim_v, p),
    }


def _verdict(s_value: int | None, bound: int) -> str:
    if s_value is None:
        return "vacuous"
    return "satisfied" if s_value <= bound else "VIOLATED"


def audit(
    catalog: IrrepCatalog,
    ring: InvariantRing,
    gens: GeneratorSet,
    cx: KoszulComplex,
    p_values,
    noether: NoetherResult,
):
    """Bound comparison of s_p(V) for each requested p, read off the
    complex `cx` whose homology is Tor over Sym(`gens`) of the invariant
    ring `ring` of V, with the ceiling `noether` certifies.

    Returns (reports, findings): one report dict per p, as the report
    prints it, with "none" for an s_p that the scan did not see. Findings
    are conjecture violations with full reproduction data, the report
    included; proven-bound violations raise instead.
    """
    group = catalog.group
    g = group.order
    mode = gens.mode
    dim_v = ring.rep.degree
    beta_v = gens.beta_V
    if mode == "full":
        beta_v = minimal_generators(ring, stop=noether.value).beta_V
    reports = []
    findings = []
    for p in p_values:
        bounds = compute_bounds(g, group.class_count, catalog.m, noether.value, dim_v, p)
        s = syzygy_degree(cx, p)
        verdicts = {
            "derksen_bound": _verdict(s, bounds["derksen_bound"]),
            "universal_bound": _verdict(s, bounds["universal_bound"]),
            "cubic_bound": _verdict(s, bounds["cubic_bound"]),
            "scan_ceiling": _verdict(s, bounds["scan_ceiling"]),
        }
        if verdicts["cubic_bound"] == "VIOLATED":
            raise InternalInconsistency("proven bound violated — implementation bug")
        if verdicts["scan_ceiling"] == "VIOLATED":
            raise InternalInconsistency("proven bound violated — implementation bug")
        if verdicts["universal_bound"] == "VIOLATED":
            if noether.exact:
                raise InternalInconsistency(
                    "proven bound violated — implementation bug"
                )
            # with the order fallback standing in for beta the comparison is
            # not the proven statement; label, do not abort
            verdicts["universal_bound"] = "violated under fallback beta (not a certified check)"
        elif not noether.exact:
            verdicts["universal_bound"] += " (not a certified check: beta is the order fallback)"
        report = {
            "p": p,
            "mode": mode,
            "g": g,
            "n": group.class_count,
            "m": catalog.m,
            "irreducible_degrees": list(catalog.degrees),
            "dim_V": dim_v,
            "beta_V": beta_v,
            "beta": {"value": noether.value, "exact": noether.exact},
            "bounds": bounds,
            "s_value": s if s is not None else "none",
            "verdicts": verdicts,
        }
        reports.append(report)
        if verdicts["derksen_bound"] == "VIOLATED":
            findings.append(
                {
                    "kind": "conjecture-violation",
                    "statement": "s_p(V) <= (p+1)g failed on a computed instance",
                    "p": p,
                    "mode": mode,
                    "s_value": s,
                    "derksen_bound": bounds["derksen_bound"],
                    "group_order": g,
                    "report": report,
                }
            )
    return reports, findings


def inequality_chain_check(g_max: int = 12, p_max: int = 12) -> dict:
    """Exhaustive integer verification of the bound-derivation chain.

    For every admissible (beta, m, g, p): the product form equals
    beta^2*m*p + delta_p; it is monotone up to the g-substituted value;
    that value rewrites exactly as p*g^3 - g*(p*g + 1 - p - g); and
    p + g <= p*g + 1 makes the correction nonnegative.
    """
    checked = 0
    for g in range(1, g_max + 1):
        for p in range(1, p_max + 1):
            if p + g > p * g + 1:
                raise InternalInconsistency("p + g <= p*g + 1 failed")
            mid = (g - 1) * (g * g * p + g) + g * p
            if mid != p * g**3 - g * (p * g + 1 - p - g):
                raise InternalInconsistency("cubic rewriting identity failed")
            if mid > p * g**3:
                raise InternalInconsistency("cubic bound chain failed")
            for m in range(1, g + 1):
                for beta in range(1, g + 1):
                    delta_p = (beta - 1) * g - (m - 1) * beta * p
                    universal = beta * beta * m * p + delta_p
                    if (beta - 1) * (beta * m * p + g) + beta * p != universal:
                        raise InternalInconsistency("delta identity failed")
                    if universal > mid:
                        raise InternalInconsistency("monotone substitution step failed")
                    if universal > p * g**3:
                        raise InternalInconsistency("corollary dominance failed")
                    checked += 1
    return {"passed": True, "tuples_checked": checked, "g_max": g_max, "p_max": p_max}


def m_bound_check(n: int, g: int, m: int) -> dict:
    """m <= sqrt(n*g), checked exactly as m^2 <= n*g."""
    return {"passed": m * m <= n * g, "m_squared": m * m, "ng": n * g}
