"""Finite group core and representation machinery.

Groups are built by breadth-first closure from permutation or matrix
generators; the canonical element order is discovery order with the
identity first, and every derived object (multiplication table, conjugacy
classes, representations built from generator images) follows that order.
An irreducible catalog validates itself when it is built (one irreducible
per class, squared degrees summing to the order, orthonormal characters),
so a catalog that exists has passed and no caller checks it again.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import lcm
from operator import matmul

from .cyclo import Cyclotomic, quotient, scalar_key, zeta
from .errors import InternalInconsistency, InvalidInput, LimitExceeded
from .limits import DEFAULT_BUDGET, Budget
from .linalg import Matrix, rank

EXHAUSTIVE_ORDER = 64  # full associativity / homomorphism checks up to here
_CHECK_SAMPLES = 1000


class FiniteGroup:
    """Multiplication-table presentation of a finite group.

    `parents[i] = (j, k)` records that element i was first reached as
    element j times generator k, so representations can be rebuilt from
    generator images alone.
    """

    def __init__(self, mul_table, parents, num_generators):
        self.order = len(mul_table)
        self.mul_table = tuple(tuple(r) for r in mul_table)
        self.identity = 0
        self.parents = tuple(parents)
        self.num_generators = num_generators
        self._validate_axioms()
        self.inverses = self._compute_inverses()
        self.class_of, self.class_reps = self._conjugacy_classes()
        self.class_count = len(self.class_reps)
        self.class_sizes = tuple(
            sum(1 for c in self.class_of if c == k) for k in range(self.class_count)
        )

    def generator_elements(self) -> tuple:
        """The distinct non-identity generators: the elements first reached
        from the identity. They generate the group."""
        return tuple(i for i, (p, _) in enumerate(self.parents) if p == 0)

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def _validate_axioms(self):
        g = self.order
        table = self.mul_table
        for a in range(g):
            if table[0][a] != a or table[a][0] != a:
                raise InternalInconsistency("identity law fails in closure table")
            if set(table[a]) != set(range(g)):
                raise InternalInconsistency("multiplication table row is not a bijection")
        if g <= EXHAUSTIVE_ORDER:
            triples = (
                (a, b, c) for a in range(g) for b in range(g) for c in range(g)
            )
        else:
            rng = random.Random(0)
            triples = (
                (rng.randrange(g), rng.randrange(g), rng.randrange(g))
                for _ in range(_CHECK_SAMPLES)
            )
        for a, b, c in triples:
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise InternalInconsistency("associativity fails in closure table")

    def _compute_inverses(self):
        inv = [None] * self.order
        for a in range(self.order):
            for b in range(self.order):
                if self.mul_table[a][b] == 0:
                    inv[a] = b
                    break
            if inv[a] is None or self.mul_table[inv[a]][a] != 0:
                raise InternalInconsistency("inverse law fails in closure table")
        return tuple(inv)

    def _conjugacy_classes(self):
        class_of = [None] * self.order
        reps = []
        for a in range(self.order):
            if class_of[a] is not None:
                continue
            k = len(reps)
            reps.append(a)
            for t in range(self.order):
                b = self.mul_table[self.mul_table[t][a]][self.inverses[t]]
                class_of[b] = k
        return tuple(class_of), tuple(reps)

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != 0:
            x = self.mul_table[x][a]
            n += 1
        return n

    def exponent(self) -> int:
        return lcm(*(self.element_order(a) for a in range(self.order)))

    def canonical_form(self) -> dict:
        return {"mul_table": [list(r) for r in self.mul_table], "identity": 0}


def _perm_compose(p, q):
    # (p . q)(i) = p[q[i]]: apply q first, matching matrix convention
    return tuple(p[i] for i in q)


def _is_permutation(p) -> bool:
    return sorted(p) == list(range(len(p)))


def generate_group(generators, budget: Budget = DEFAULT_BUDGET) -> FiniteGroup:
    """Breadth-first closure of permutation or matrix generators."""
    if not generators:
        raise InvalidInput("at least one generator required")
    if isinstance(generators[0], Matrix):
        deg = generators[0].rows
        for m in generators:
            if m.rows != deg or m.cols != deg:
                raise InvalidInput("matrix generators must share one square shape")
            if rank(m) != deg:
                raise InvalidInput("generator not invertible")
        gens = _unify_matrix_conductors(list(generators))
        identity, mul, key = Matrix.identity(deg), matmul, _matrix_key
    else:
        gens = [tuple(p) for p in generators]
        n = len(gens[0])
        for p in gens:
            if len(p) != n or not _is_permutation(p):
                raise InvalidInput("generator not invertible")
        identity, mul, key = tuple(range(n)), _perm_compose, tuple
    elements = [identity]
    index = {key(identity): 0}
    parents = [(-1, -1)]
    head = 0
    while head < len(elements):
        x = elements[head]
        for j, s in enumerate(gens):
            y = mul(x, s)
            k = key(y)
            if k not in index:
                if len(elements) >= budget.group_order_limit:
                    raise LimitExceeded("order limit exceeded")
                index[k] = len(elements)
                elements.append(y)
                parents.append((head, j))
        head += 1
    table = [[index[key(mul(a, b))] for b in elements] for a in elements]
    return FiniteGroup(table, parents, len(gens))


def _matrix_key(m: Matrix):
    return tuple(scalar_key(x) for row in m.data for x in row)


def _unify_matrix_conductors(mats):
    """Lift all cyclotomic entries to one conductor so closure keys are stable."""
    n = 1
    for m in mats:
        for row in m.data:
            for x in row:
                if isinstance(x, Cyclotomic):
                    n = lcm(n, x.conductor)
    if n == 1:
        return mats
    out = []
    for m in mats:
        rows = []
        for row in m.data:
            rows.append(
                [
                    Cyclotomic._normalized(n, x.lift(n)) if isinstance(x, Cyclotomic) else x
                    for x in row
                ]
            )
        out.append(Matrix(m.rows, m.cols, rows))
    return out


class Representation:
    """Matrix images, one per group element, in the group's element order."""

    def __init__(self, group: FiniteGroup, images, check: bool = True):
        self.group = group
        self.images = tuple(images)
        if len(self.images) != group.order:
            raise InvalidInput("need one matrix per group element")
        self.degree = self.images[0].rows if self.images else 0
        if check:
            self.validate()

    @staticmethod
    def from_generator_images(group: FiniteGroup, gen_images) -> "Representation":
        if len(gen_images) != group.num_generators:
            raise InvalidInput(
                f"need {group.num_generators} generator images, got {len(gen_images)}"
            )
        gen_images = _unify_matrix_conductors([Matrix.from_rows(m.data) for m in gen_images])
        deg = gen_images[0].rows if gen_images else 0
        images = [None] * group.order
        images[0] = Matrix.identity(deg)
        for idx in range(1, group.order):
            p, j = group.parents[idx]
            images[idx] = images[p] @ gen_images[j]
        return Representation(group, images)

    def validate(self):
        g = self.group.order
        for m in self.images:
            if m.rows != self.degree or m.cols != self.degree:
                raise InvalidInput("representation images must share one shape")
        if self.degree == 0:
            return
        if self.images[0] != Matrix.identity(self.degree):
            raise InvalidInput("identity element must map to the identity matrix")
        if g <= EXHAUSTIVE_ORDER:
            pairs = ((a, b) for a in range(g) for b in range(g))
        else:
            rng = random.Random(1)
            pairs = ((rng.randrange(g), rng.randrange(g)) for _ in range(_CHECK_SAMPLES))
        for a, b in pairs:
            if self.images[self.group.mul(a, b)] != self.images[a] @ self.images[b]:
                raise InvalidInput("not a homomorphism")
        for m in self.images:
            if rank(m) != self.degree:
                raise InvalidInput("representation image not invertible")

    def canonical_form(self) -> dict:
        from .cyclo import encode_scalar

        return {
            "degree": self.degree,
            "images": [
                [[encode_scalar(x) for x in row] for row in m.data] for m in self.images
            ],
        }


def character_of(rep: Representation) -> tuple:
    """The trace of rep on each conjugacy class, in class order."""
    group = rep.group
    traces = []
    for a in range(group.order):
        m = rep.images[a]
        traces.append(sum(m.at(i, i) for i in range(m.rows)))
    values = []
    for k, r in enumerate(group.class_reps):
        for a in range(group.order):
            if group.class_of[a] == k and traces[a] != traces[r]:
                raise InternalInconsistency("trace not constant on a conjugacy class")
        values.append(traces[r])
    if rep.degree != 0 and values[group.class_of[group.identity]] != rep.degree:
        raise InternalInconsistency("character at identity differs from degree")
    return tuple(values)


def character_inner_product(group: FiniteGroup, chi: tuple, psi: tuple):
    """(1/g) sum over G of chi(a) psi(a^-1), evaluated class by class."""
    total = 0
    for k in range(group.class_count):
        inv_class = group.class_of[group.inverses[group.class_reps[k]]]
        total = total + group.class_sizes[k] * (chi[k] * psi[inv_class])
    return quotient(total, group.order)


class IrrepCatalog:
    """A full list of irreducible representations with their degrees. A
    catalog that fails `validate_irrep_catalog` is refused with
    InvalidInput, so every catalog that exists has passed."""

    def __init__(self, group: FiniteGroup, irreps):
        self.group = group
        self.irreps = tuple(irreps)
        self.degrees = tuple(r.degree for r in self.irreps)
        self.m = sum(self.degrees)
        self.characters = tuple(character_of(r) for r in self.irreps)
        failures = validate_irrep_catalog(self)
        if failures:
            raise InvalidInput("; ".join(failures))


def validate_irrep_catalog(catalog: IrrepCatalog) -> list:
    """What keeps `catalog` from being the full set of irreducibles of its
    group: a count or a squared-degree sum off, or characters that are not
    orthonormal. Empty when it is the full set."""
    group = catalog.group
    failures = []
    if len(catalog.irreps) != group.class_count:
        failures.append(
            f"expected {group.class_count} irreducibles (one per class), got {len(catalog.irreps)}"
        )
    total = sum(d * d for d in catalog.degrees)
    if total != group.order:
        failures.append(
            f"sum of squared degrees is {total}, group order is {group.order}"
        )
    for i, chi in enumerate(catalog.characters):
        for j, psi in enumerate(catalog.characters):
            if j < i:
                continue
            ip = character_inner_product(group, chi, psi)
            expected = 1 if i == j else 0
            if ip != expected:
                failures.append(
                    f"<chi_{i}, chi_{j}> = {ip}, expected {expected}"
                )
    return failures


def regular_representation(group: FiniteGroup) -> Representation:
    """Left translation on the group algebra: permutation matrices of size g."""
    g = group.order
    images = []
    for a in range(g):
        data = [[0] * g for _ in range(g)]
        for b in range(g):
            data[group.mul(a, b)][b] = 1
        images.append(Matrix(g, g, data))
    return Representation(group, images, check=False)


# -- built-in groups with irreducible catalogs -----------------------------------


def _perm_cycle(n):
    return tuple((i + 1) % n for i in range(n))


def _builtin_spec(name: str):
    """Returns (generators, [irrep generator-image lists])."""
    parts = name.split(":")
    if parts[0] != "builtin" or len(parts) != 3:
        raise InvalidInput(f"unknown builtin {name!r}")
    kind, arg = parts[1], parts[2]
    try:
        n = int(arg)
    except ValueError as exc:
        raise InvalidInput(f"unknown builtin {name!r}") from exc

    if kind == "cyclic" and 1 <= n <= 12:
        gens = [_perm_cycle(n)] if n > 1 else [(0,)]
        irreps = [[Matrix.from_rows([[zeta(n) ** k]])] for k in range(n)]
        return gens, irreps

    if kind == "klein" and n == 4:
        gens = [(1, 0, 3, 2), (2, 3, 0, 1)]
        irreps = [
            [Matrix.from_rows([[a]]), Matrix.from_rows([[b]])]
            for a, b in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        ]
        return gens, irreps

    if kind == "dihedral" and 3 <= n <= 6:
        rot = _perm_cycle(n)
        refl = tuple((n - i) % n for i in range(n))
        gens = [rot, refl]
        irreps = []
        if n % 2 == 1:
            linear = [(1, 1), (1, -1)]
        else:
            linear = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        for a, b in linear:
            irreps.append([Matrix.from_rows([[a]]), Matrix.from_rows([[b]])])
        z = zeta(n)
        for j in range(1, (n - 1) // 2 + 1 if n % 2 == 1 else n // 2):
            irreps.append(
                [
                    Matrix.from_rows([[z**j, 0], [0, z**-j]]),
                    Matrix.from_rows([[0, 1], [1, 0]]),
                ]
            )
        return gens, irreps

    if kind == "sym" and n == 3:
        gens = [(1, 0, 2), (1, 2, 0)]  # (0 1), (0 1 2)
        irreps = [
            [Matrix.from_rows([[1]]), Matrix.from_rows([[1]])],
            [Matrix.from_rows([[-1]]), Matrix.from_rows([[1]])],
            [Matrix.from_rows([[-1, 1], [0, 1]]), Matrix.from_rows([[0, -1], [1, -1]])],
        ]
        return gens, irreps

    if kind == "sym" and n == 4:
        gens = [(1, 0, 2, 3), (1, 2, 3, 0)]  # (0 1), (0 1 2 3)
        std_t = Matrix.from_rows([[-1, 1, 0], [0, 1, 0], [0, 0, 1]])
        std_c = Matrix.from_rows([[0, 0, -1], [1, 0, -1], [0, 1, -1]])
        irreps = [
            [Matrix.from_rows([[1]]), Matrix.from_rows([[1]])],
            [Matrix.from_rows([[-1]]), Matrix.from_rows([[-1]])],
            # factors through the quotient on the three pairings
            [Matrix.from_rows([[1, 0], [1, -1]]), Matrix.from_rows([[0, -1], [-1, 0]])],
            [std_t, std_c],
            [std_t.scale(-1), std_c.scale(-1)],
        ]
        return gens, irreps

    if kind == "alt" and n == 4:
        gens = [(1, 2, 0, 3), (1, 0, 3, 2)]  # (0 1 2), (0 1)(2 3)
        w = zeta(3)
        irreps = [
            [Matrix.from_rows([[1]]), Matrix.from_rows([[1]])],
            [Matrix.from_rows([[w]]), Matrix.from_rows([[1]])],
            [Matrix.from_rows([[w**2]]), Matrix.from_rows([[1]])],
            [
                Matrix.from_rows([[0, -1, 1], [1, -1, 1], [0, 0, 1]]),
                Matrix.from_rows([[-1, 1, 0], [0, 1, 0], [0, 1, -1]]),
            ],
        ]
        return gens, irreps

    if kind == "quaternion" and n == 8:
        z4 = zeta(4)
        gi = Matrix.from_rows([[z4, 0], [0, -1 * z4]])
        gj = Matrix.from_rows([[0, -1], [1, 0]])
        gens = [gi, gj]
        irreps = [
            [Matrix.from_rows([[a]]), Matrix.from_rows([[b]])]
            for a, b in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        ]
        irreps.append([gi, gj])
        return gens, irreps

    raise InvalidInput(f"unknown builtin {name!r}")


BUILTIN_NAMES = (
    ["builtin:cyclic:%d" % n for n in range(1, 13)]
    + ["builtin:dihedral:%d" % n for n in range(3, 7)]
    + ["builtin:klein:4", "builtin:sym:3", "builtin:sym:4", "builtin:alt:4", "builtin:quaternion:8"]
)


@lru_cache(maxsize=None)
def builtin_group(name: str):
    """(FiniteGroup, IrrepCatalog) for a builtin name; results are shared."""
    gens, irrep_images = _builtin_spec(name)
    group = generate_group(gens)
    irreps = [Representation.from_generator_images(group, imgs) for imgs in irrep_images]
    try:
        return group, IrrepCatalog(group, irreps)
    except InvalidInput as exc:
        raise InternalInconsistency(f"shipped catalog for {name} failed validation: {exc}") from exc
