"""Bundled example actions and explicit classification runs.

fixture() hands out the standing examples used throughout the test suite:
the even unimodular lattices of signature (3,19) and (3,3) with trivial
action, two order-6 actions on the rank-22 lattice that differ only in the
choice of reflection generator, and the summand-swap involution.  Each
fixture carries a record of expected values together with an origin tag per
key: "claimed" marks a value the code is expected to reproduce because it is
asserted independently of this implementation, "recorded" marks a value this
implementation computed first and freezes as a regression anchor.

The three run functions are explicit computations over these inputs:
classify_order3_on_2U enumerates order-3 isometries of U+U with bounded
entries, torus_symplectic_survey counts three small reflection groups two
independent ways and embeds their root systems into E8, and d3_full_pipeline
drives one of the order-6 actions end to end against its expected record.
"""

from __future__ import annotations

import itertools
import math
from operator import mul

from . import linalg as la
from ._record import record
from .errors import InputError, LattactError, ScopeError, VerificationError
from .group_actions import (
    LatticeAction,
    dilated_complex_structure,
    eigen_lattices,
    fundamental_data,
    is_geometric,
    leftover_lattice,
)
from .lattice import (
    Lattice,
    Sublattice,
    _trusted,
    enumerate_vectors,
    rank2_isomorphism_class,
    signature,
    standard_lattice,
)


# ---------------------------------------------------------------------------
# the standing generator blocks on U+U (columns are images of basis vectors)

# order 3, no nonzero fixed vectors on U+U
ROTATION_2U = ((0, 0, -1, 0), (0, -1, 0, -1), (1, 0, -1, 0), (0, 1, 0, 0))

# two involutions normalising the rotation; together with it each generates
# a dihedral group of order 6, and they are not conjugate inside it
REFLECTION_MAIN = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0))
REFLECTION_SPLIT = ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, -1, 0, -1))

FIXTURE_NAMES = ("k3_lattice", "torus_lattice", "d3_S", "d3_Sprime", "e8_swap")

_CLASS_LABELS = {
    ((-2, 1), (1, -2)): "A2",
    ((2, -1), (-1, 2)): "A2(-1)",
    (): "0",
}


@record
class Fixture:
    """A named action plus its expected-results record.

    expected maps result keys to frozen values.  origins tags every key
    either "claimed" (the value is asserted independently of this code and
    the computation must reproduce it) or "recorded" (first computed here,
    frozen so later changes cannot drift silently).
    """

    name: str
    action: LatticeAction
    expected: dict
    origins: dict

    def __post_init__(self):
        try:
            keys, tags = set(self.expected) ^ set(self.origins), set(self.origins.values())
        except (AttributeError, TypeError):  # not a pair of dicts
            raise InputError("expected and origins must be dicts") from None
        if keys:
            raise InputError("every expected key needs exactly one origin tag")
        bad = tags - {"claimed", "recorded"}
        if bad:
            raise InputError(f"unknown origin tags: {sorted(bad)}")


@record
class Order3Hit:
    """One matrix found by the bounded order-3 search, with the isomorphism
    class of its fixed lattice ("A2", "A2(-1)", "0", or the canonical gram
    as a fallback label)."""

    matrix: tuple
    fixed_basis: tuple
    fixed_class: str


@record
class ClassifyReport:
    entry_bound: int
    hits: tuple
    classes: tuple  # sorted distinct fixed_class labels
    note: str


@record
class SurveyEntry:
    """One root system of the survey: Weyl group counted by matrix closure
    and by the product formula, plus an explicit root embedding into E8."""

    system: str
    gram: tuple
    weyl_order: int
    rotation_order: int
    weyl_order_formula: int
    rotation_order_formula: int
    embedding: tuple  # rows: roots of E8 realising gram exactly


@record
class SurveyReport:
    entries: tuple
    all_consistent: bool


@record
class PipelineReport:
    """Per-stage (label, ok, note) entries; a failing stage stops the run,
    so all_passed also certifies that every stage was reached."""

    variant: str
    entries: tuple
    all_passed: bool


# ---------------------------------------------------------------------------
# fixtures


def _embed_rank22(block) -> tuple:
    """block acting on the first two U summands of 3U+2E8, identity beyond."""
    rows = []
    for i in range(22):
        row = [0] * 22
        if i < 4:
            row[:4] = block[i]
        else:
            row[i] = 1
        rows.append(tuple(row))
    return tuple(rows)


def _swap_matrix() -> tuple:
    rows = [[0] * 22 for _ in range(22)]
    for i in range(6):
        rows[i][i] = 1
    for i in range(8):
        rows[6 + i][14 + i] = 1
        rows[14 + i][6 + i] = 1
    return tuple(map(tuple, rows))


def _split_rank2_class(l: Lattice) -> str:
    """Name an even lattice of signature (1,1) by its isomorphism class.

    Determinant -1 forces U.  Determinant -4 leaves two classes, told apart
    by whether a vector of square -2 exists: diag(2,-2) has one, U(2) has
    squares divisible by 4 only.
    """
    if l.rank != 2:
        raise ScopeError("split-form naming needs rank 2")
    sig = signature(l)
    if (sig.plus, sig.minus) != (1, 1):
        raise ScopeError("split-form naming needs signature (1,1)")
    d = l.det()
    if d == -1:
        return "U"
    if d == -4:
        if enumerate_vectors(l, -2, up_to_sign=True):
            return "diag(2,-2)"
        return "U(2)"
    raise ScopeError("split-form naming covers determinants -1 and -4 only")


def _fixture_from_table(name, action, table) -> Fixture:
    """A Fixture whose expected values and origin tags come from one
    key: (value, origin) table, in its key order."""
    expected = {key: value for key, (value, _) in table.items()}
    origins = {key: origin for key, (_, origin) in table.items()}
    return Fixture(name, action, expected, origins)


def _unimodular_fixture(name, sig_expected) -> Fixture:
    spec = "3U+2E8" if name == "k3_lattice" else "3U"
    l = standard_lattice(spec)
    action = LatticeAction(l, (("id", la.identity(l.rank), 1),))
    table = {
        "signature": (sig_expected, "claimed"),
        "even": (True, "claimed"),
        "determinant": (-1, "claimed"),
    }
    return _fixture_from_table(name, action, table)


def _d3_fixture(name) -> Fixture:
    l = standard_lattice("3U+2E8")
    refl = REFLECTION_MAIN if name == "d3_S" else REFLECTION_SPLIT
    action = LatticeAction(
        l,
        (
            ("t", _embed_rank22(ROTATION_2U), 1),
            ("s", _embed_rank22(refl), -1),
        ),
    )
    rho_basis = tuple(
        tuple(1 if j == i else 0 for j in range(22)) for i in range(4)
    )
    table = {
        "group_order": (6, "claimed"),
        "rotation_order": (3, "claimed"),
        "real": (False, "claimed"),
        "fixed_gram": (standard_lattice("U+2E8").gram, "claimed"),
        "rho_basis": (rho_basis, "recorded"),
        "ldot_rank": (0, "claimed"),
        "eigen_exponent": (2, "recorded"),
    }
    if name == "d3_S":
        table.update(
            {
                "m_plus_vectors": (((1, 1, 1, 0), (1, 0, 1, -1)), "claimed"),
                "m_plus_gram_in_w": (((2, 0), (0, -2)), "claimed"),
                "m_plus_class": ("diag(2,-2)", "claimed"),
                "m_minus_class": ("diag(2,-2)", "claimed"),
                "plus_minus2_pairs": (1, "claimed"),
                "plus_minus6_pairs": (2, "claimed"),
                "plus_minus4_pairs": (0, "claimed"),
                "candidate_count": (10, "recorded"),
                "wall_count": (2, "claimed"),
                "wall_rays": (((1, 1), (3, 2)), "recorded"),
                "wall_normals": (((1, 0, 1, -1), (3, 1, 3, -2)), "recorded"),
                "components": (3, "claimed"),
            }
        )
    else:
        table.update(
            {
                "m_plus_class": ("U(2)", "claimed"),
                "m_minus_class": ("U(2)", "claimed"),
                "plus_minus4_pairs": (1, "claimed"),
                "minus_minus4_pairs": (1, "claimed"),
                "candidate_count": (2, "recorded"),
                "wall_count": (0, "claimed"),
                "components": (1, "claimed"),
            }
        )
    return _fixture_from_table(name, action, table)


def _swap_fixture() -> Fixture:
    l = standard_lattice("3U+2E8")
    action = LatticeAction(l, (("w", _swap_matrix(), 1),))
    table = {
        "group_order": (2, "recorded"),
        "rotation_order": (1, "recorded"),
        "real": (True, "recorded"),
        "geometric": (True, "recorded"),
        "ldot_rank": (8, "recorded"),
        "ldot_gram": (la.mat_scale(2, standard_lattice("E8").gram), "recorded"),
    }
    return _fixture_from_table("e8_swap", action, table)


def fixture(name: str) -> Fixture:
    """Build the named example; names are listed in FIXTURE_NAMES."""
    if name == "k3_lattice":
        return _unimodular_fixture(name, (3, 19))
    if name == "torus_lattice":
        return _unimodular_fixture(name, (3, 3))
    if name in ("d3_S", "d3_Sprime"):
        return _d3_fixture(name)
    if name == "e8_swap":
        return _swap_fixture()
    raise InputError(
        f"unknown fixture {name!r}; choose one of " + ", ".join(FIXTURE_NAMES)
    )


# ---------------------------------------------------------------------------
# bounded order-3 classification on U+U

MAX_ENTRY_BOUND = 6  # bound 6 searches for 3.7 s on one core of a 2-core Xeon, CPython 3.11


def classify_order3_on_2U(entry_bound: int = 2) -> ClassifyReport:
    """All order-3 isometries of U+U whose matrix entries lie in
    [-entry_bound, entry_bound], with their fixed lattices classified.

    The enumeration is exhaustive within the bound and says nothing about
    matrices with larger entries; the report's note repeats that caveat.
    Bounds 0 and below the smallest solution yield an empty report. Past
    MAX_ENTRY_BOUND (6, a search of about 4 s) it ends in ScopeError.

    Columns are filled left to right; a partial assignment survives only if
    its columns pair exactly as the gram matrix demands and the running
    trace can still reach one of the two values an order-3 isometry of a
    rank-4 lattice allows (1 with a rank-2 fixed part, -2 with none).
    A leaf T is thus an isometry, T^T g T = g; as g is its own inverse,
    T^-1 = g T^T g, a permutation of the entries of T^T, and T^3 = I
    exactly when T . T = g T^T g: one product per leaf.
    """
    if not la.is_bound(entry_bound):
        raise InputError("entry bound must be a nonnegative integer")
    if entry_bound > MAX_ENTRY_BOUND:
        raise ScopeError(f"entry bound must be at most {MAX_ENTRY_BOUND}; the search time grows as the bound's fourth power")
    l = standard_lattice("2U")
    g = l.gram
    n = l.rank
    ident = la.identity(n)
    # g is the permutation matrix of swap, an involution:
    # (g T^T g)[i][j] = T^T[swap[i]][swap[j]]
    swap = tuple(row.index(1) for row in g)
    pool = tuple(
        v
        for v in itertools.product(range(-entry_bound, entry_bound + 1), repeat=n)
        if la.sq(g, v) == 0
    )

    # Plesken-Souvignier: index the pool by pairings, so the candidates for
    # a column are looked up from the placed columns instead of paired;
    # partners[a][p] is the set of pool indices b with pool[a] . pool[b] = p
    partners = []
    for gv in (la.mat_vec(g, v) for v in pool):
        by_pairing = {}
        for b, w in enumerate(pool):
            by_pairing.setdefault(sum(map(mul, gv, w)), set()).add(b)
        partners.append(by_pairing)
    hits = []

    def place(cols, trace):
        k = len(cols)
        if k == n:
            tt = tuple(pool[b] for b in cols)  # T^T: row j is column j of T
            t = la.transpose(tt)
            if t != ident and la.mat_mul(t, t) == tuple(tuple(tt[i][j] for j in swap) for i in swap):
                hits.append(t)
            return
        slack = (n - k - 1) * entry_bound
        if k:
            # intersect from the smallest set, the cheapest constraint;
            # sorted, the candidates stay in pool order
            smallest, *rest = sorted((partners[c].get(g[i][k], set()) for i, c in enumerate(cols)), key=len)
            candidates = sorted(smallest.intersection(*rest))
        else:
            candidates = range(len(pool))
        for b in candidates:
            tr = trace + pool[b][k]
            if min(abs(tr - 1), abs(tr + 2)) <= slack:
                place(cols + [b], tr)

    place([], 0)

    out = []
    for t in sorted(hits):
        # fixed_kernel's basis, kernel_int's, is in HNF already
        sub = _trusted(Sublattice, l, la.fixed_kernel((t,), n))
        cls = rank2_isomorphism_class(sub.as_lattice())
        label = _CLASS_LABELS.get(cls, f"gram{cls}")
        out.append(Order3Hit(t, sub.basis, label))
    classes = tuple(sorted({h.fixed_class for h in out}))
    note = (
        f"complete for entries within [{-entry_bound}, {entry_bound}]; "
        "matrices with larger entries are not examined"
    )
    return ClassifyReport(entry_bound, tuple(out), classes, note)


# ---------------------------------------------------------------------------
# symplectic survey over the three small root systems


def _embed_into_e8(system_gram, e8: Lattice, roots) -> tuple:
    """First tuple of the E8 roots (enumeration order) pairing exactly as
    the given gram; backtracks, so failure means no embedding exists at all."""
    k = len(system_gram)
    chosen = []

    def place(idx):
        if idx == k:
            return True
        for r in roots:
            if all(
                la.dot(e8.gram, chosen[i], r) == system_gram[i][idx]
                for i in range(idx)
            ):
                chosen.append(r)
                if place(idx + 1):
                    return True
                chosen.pop()
        return False

    if not place(0):
        raise VerificationError("no embedding into E8 found")
    return tuple(chosen)


def torus_symplectic_survey() -> SurveyReport:
    """Survey the three root systems whose reflection groups act on the
    rank-3 odd part: Weyl and rotation-subgroup orders counted both by
    matrix closure and by the product formula, with explicit embeddings
    of each system into E8.

    all_consistent certifies, per system, that the two counts agree and
    that the embedded roots reproduce the gram exactly.
    """
    # imported here: fixture and classify need no root systems
    from .root_systems import reflection

    systems = (
        ("A3", math.factorial(4)),
        ("A2+A1", math.factorial(3) * math.factorial(2)),
        ("3A1", 2 ** 3),
    )
    entries = []
    consistent = True
    e8 = standard_lattice("E8")
    e8_roots = enumerate_vectors(e8, -2)
    for name, formula in systems:
        lat = standard_lattice(name)
        gram = lat.gram
        closure = la.matrix_group_closure([reflection(lat, e).matrix for e in la.identity(lat.rank)])
        weyl = len(closure)
        rotation = sum(1 for m in closure if la.det(m) == 1)
        embedding = _embed_into_e8(gram, e8, e8_roots)
        embedded_gram = tuple(
            tuple(la.dot(e8.gram, u, v) for v in embedding) for u in embedding
        )
        entries.append(
            SurveyEntry(
                name, gram, weyl, rotation, formula, formula // 2, embedding
            )
        )
        if weyl != formula or 2 * rotation != formula or embedded_gram != gram:
            consistent = False
    return SurveyReport(tuple(entries), consistent)


# ---------------------------------------------------------------------------
# the full pipeline over the two order-6 actions


def _wall_normal(wall, j) -> tuple:
    """Primitive block-coordinate normal of the line a wall cuts: the plus
    projection of its root when nonzero, otherwise J of the minus part."""
    if any(wall.v_plus):
        return la.primitive_vector(wall.v_plus)
    return la.primitive_vector(la.mat_vec(j.matrix, wall.v_minus))


_PIPELINE_STAGES = ("group", "fundamental", "fixed", "rotation", "eigen", "geometric", "walls")


def d3_full_pipeline(variant: str, action: LatticeAction | None = None) -> PipelineReport:
    """Drive one of the two order-6 rank-22 actions end to end.

    variant is "S" or "Sprime".  Every stage is checked against the
    fixture's expected record and reported as (label, ok, note); the run
    stops at the first failure, so deliberately broken inputs surface the
    stage where they break.  Passing an explicit action substitutes it for
    the bundled one while keeping the same expectations, which is how
    corrupted declarations are exercised.
    """
    if variant not in ("S", "Sprime"):
        raise InputError('pipeline variant must be "S" or "Sprime"')
    fx = fixture("d3_S" if variant == "S" else "d3_Sprime")
    act = fx.action if action is None else action
    entries = []
    try:
        for label, ok, note in _pipeline_stages(variant, act, fx.expected):
            entries.append((label, bool(ok), note))
            if not ok:
                break
    except LattactError as err:
        # the stages run lazily: the one that raised is the next to report
        entries.append((_PIPELINE_STAGES[len(entries)], False, f"{type(err).__name__}: {err}"))
    all_passed = len(entries) == len(_PIPELINE_STAGES) and all(ok for _, ok, _ in entries)
    return PipelineReport(variant, tuple(entries), all_passed)


def _pipeline_stages(variant, act, exp):
    """Yield d3_full_pipeline's (label, ok, note) entries, one stage per
    step, in _PIPELINE_STAGES order."""
    # imported here: fixture, classify and survey need no walls
    from .walls import wall_report

    if len(act.generators) != 2:
        yield "group", False, f"expected two generators, got {len(act.generators)}"
        return
    # the group is closed once, inside fundamental_data, which the later
    # stages read
    f = fundamental_data(act)
    # t^3 = s^2 = 1 and s t s = t^2 on the group table: table[i][j]
    # indexes elements[i] . g_j, so row 0 indexes the generators
    table = f.group.table
    t, s = table[0]
    relations = (
        3 % f.group.order(t) == 0
        and 2 % f.group.order(s) == 0
        and table[table[s][0]][1] == table[t][0]
    )
    ok = len(f.group) == exp["group_order"] and relations
    yield "group", ok, f"order {len(f.group)}, relations {'hold' if relations else 'fail'}"

    ok = f.order_n == exp["rotation_order"] and f.real is exp["real"]
    yield "fundamental", ok, f"n={f.order_n}, real={f.real}"

    yield "fixed", f.fixed.gram() == exp["fixed_gram"], f"rank {f.fixed.rank} invariant block"

    yield "rotation", f.rho.basis == exp["rho_basis"], f"rotation block rank {f.rho.rank}"

    e = eigen_lattices(act, f)
    mp = e.m_plus.as_lattice()
    mm = e.m_minus.as_lattice()
    checks = [
        e.exponent == exp["eigen_exponent"],
        _split_rank2_class(mp) == exp["m_plus_class"],
        _split_rank2_class(mm) == exp["m_minus_class"],
    ]
    if variant == "S":
        w1, w2 = exp["m_plus_vectors"]
        bg = e.m_plus.ambient.gram
        wgram = tuple(tuple(la.dot(bg, u, v) for v in (w1, w2)) for u in (w1, w2))
        checks += [
            e.m_plus.contains(w1) and e.m_plus.contains(w2),
            wgram == exp["m_plus_gram_in_w"],
            abs(la.det(wgram)) == abs(mp.det()),
            len(enumerate_vectors(mp, -2, up_to_sign=True)) == exp["plus_minus2_pairs"],
            len(enumerate_vectors(mp, -6, up_to_sign=True)) == exp["plus_minus6_pairs"],
            len(enumerate_vectors(mp, -4, up_to_sign=True)) == exp["plus_minus4_pairs"],
        ]
    else:
        checks += [
            len(enumerate_vectors(mp, -4, up_to_sign=True)) == exp["plus_minus4_pairs"],
            len(enumerate_vectors(mm, -4, up_to_sign=True)) == exp["minus_minus4_pairs"],
        ]
    yield "eigen", all(checks), f"classes {exp['m_plus_class']}/{exp['m_minus_class']}, exponent {e.exponent}"

    geo, witnesses = is_geometric(act, f)
    ld = leftover_lattice(act, f)
    ok = geo and not witnesses and ld.rank == exp["ldot_rank"]
    yield "geometric", ok, f"geometric={geo}, leftover rank {ld.rank}"

    j = dilated_complex_structure(act, f)
    rep = wall_report(e, j)
    checks = [
        rep.complete,
        rep.candidate_count == exp["candidate_count"],
        len(rep.walls) == exp["wall_count"],
        rep.components == exp["components"],
    ]
    if exp["wall_count"]:
        rays = tuple(sorted(w.direction for w in rep.walls))
        normals = tuple(sorted(_wall_normal(w, j) for w in rep.walls))
        checks += [rays == exp["wall_rays"], normals == exp["wall_normals"]]
    note = f"{rep.candidate_count} candidates, {len(rep.walls)} walls, {rep.components} components"
    yield "walls", all(checks), note
