"""Computation budgets.

All size ceilings live here so a single --budget-level flag can scale them
together. The defaults are the measured desk-scale ceilings.
"""

from __future__ import annotations


class Budget:
    __slots__ = (
        "name",
        "conductor_limit",
        "group_order_limit",
        "monomial_limit",
        "noether_exact_limit",
        "tor_row_bound_max_order",
        "tor_row_bound_max_p",
    )

    def __init__(
        self,
        name: str,
        conductor_limit: int = 64,
        group_order_limit: int = 128,
        monomial_limit: int = 20000,
        noether_exact_limit: int = 8,
        # Certified row-bound checks on Tor grow the ambient space quickly;
        # gate them on group order and homological degree.
        tor_row_bound_max_order: int = 2,
        tor_row_bound_max_p: int = 1,
    ):
        self.name = name
        self.conductor_limit = conductor_limit
        self.group_order_limit = group_order_limit
        self.monomial_limit = monomial_limit
        self.noether_exact_limit = noether_exact_limit
        self.tor_row_bound_max_order = tor_row_bound_max_order
        self.tor_row_bound_max_p = tor_row_bound_max_p

    @staticmethod
    def preset(level: str) -> "Budget":
        if level == "small":
            return Budget(
                name="small",
                conductor_limit=24,
                group_order_limit=32,
                monomial_limit=3000,
                noether_exact_limit=4,
                tor_row_bound_max_order=0,
                tor_row_bound_max_p=0,
            )
        if level == "default":
            return Budget(name="default")
        if level == "large":
            return Budget(
                name="large",
                conductor_limit=128,
                group_order_limit=512,
                monomial_limit=200000,
                noether_exact_limit=10,
                tor_row_bound_max_order=6,
                tor_row_bound_max_p=2,
            )
        raise ValueError(f"unknown budget level {level!r}")

    def allows_tor_row_bounds(self, order: int, p: int) -> bool:
        """Whether the Tor computations on universal and certifying
        specializations (their size grows with both) fit this budget."""
        return order <= self.tor_row_bound_max_order and p <= self.tor_row_bound_max_p

    def as_json(self) -> dict:
        """The budget as reports print it, its name under "level"."""
        return {
            "conductor_limit": self.conductor_limit,
            "group_order_limit": self.group_order_limit,
            "monomial_limit": self.monomial_limit,
            "noether_exact_limit": self.noether_exact_limit,
            "tor_row_bound_max_order": self.tor_row_bound_max_order,
            "tor_row_bound_max_p": self.tor_row_bound_max_p,
            "level": self.name,
        }


DEFAULT_BUDGET = Budget.preset("default")
