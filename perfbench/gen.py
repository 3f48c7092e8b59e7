"""Seeded benchmark inputs, built from the standard library alone.

Everything here is plain data: Gram matrices, generator matrices, root rows
and query vectors as tuples of ints.  Nothing imports the library under
test, so the inputs cannot drift with it; ``base_action`` reproduces the
bundled fixtures in their standard basis, which the self-tests compare with
``lattact.catalog.fixture``.

Round r of a workload draws its bases, lattices and queries from a
``random.Random`` seeded by (workload, r) alone, and then writes every
item in the basis e_i -> s_i e_i with signs s_i = +-1 drawn from one
seeded by (seed, workload, r).  The signs change every entry's sign but
no entry's size, so runs with different seeds get inputs they share
almost nothing with yet measure the same work, and a spread between them
is the machine's, not the inputs'.  The same seed gives byte-identical inputs,
and round r does not depend on how many rounds ran before it.
"""

from __future__ import annotations

import json
import random

U = ((0, 1), (1, 0))
I2 = ((1, 0), (0, 1))

# order-3 rotation of U+U and its two normalising involutions (columns are
# images of basis vectors), as in the paper's running example
ROT3 = ((0, 0, -1, 0), (0, -1, 0, -1), (1, 0, -1, 0), (0, 1, 0, 0))
INV_A = ((0, 0, 1, 0), (1, 0, 0, 1), (1, 0, 0, 0), (0, 1, -1, 0))
INV_B = ((1, 0, -1, 0), (0, 1, 0, 0), (0, 0, -1, 0), (0, -1, 0, -1))

ANALYZE_KINDS = ("d3_S", "d3_Sprime", "e8_swap", "k3_lattice", "klein")

# roots of 3U cutting the walls of the Klein action; any two span its A2
WALL_A2_ROOTS = ((-1, 1, 0, 0, 0, 0), (1, 0, 1, -1, 0, 0), (0, 1, 1, -1, 0, 0))
# U_i - V_i in the i-th hyperbolic block: mutually orthogonal roots
BLOCK_ROOTS = ((1, -1), (0, 0, 1, -1), (0, 0, 0, 0, 1, -1))

DEFINITE_SPECS = (
    "A2", "A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "D6", "D7", "D8",
    "E6", "E7", "E8", "A2+A1", "A3+A3", "D4+A2", "A2+A2+A2", "E6+A2", "D4+D4",
)

# hyperbolic Gram matrices U + (negative definite part) of rank 2 to 4
HYPERBOLIC_GRAMS = (
    (U, ()), (((0, 2), (2, 0)), ()),
    (U, ((-2,),)), (U, ((-4,),)), (U, ((-6,),)),
    (U, ((-2, 0), (0, -2))), (U, ((-2, 0), (0, -6))), (U, ((-4, 0), (0, -2))),
)


def identity(n: int) -> tuple:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def mat_vec(a, v) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a) -> tuple:
    return tuple(zip(*a))


def block_diag(*blocks) -> tuple:
    n = sum(len(b) for b in blocks)
    rows = []
    off = 0
    for b in blocks:
        for r in b:
            rows.append((0,) * off + tuple(r) + (0,) * (n - off - len(b)))
        off += len(b)
    return tuple(rows)


def ade_gram(letter: str, n: int) -> tuple:
    """Negative-definite Gram of A_n, D_n or E_n read off its Dynkin
    diagram, numbered as the library numbers it (E_n: a chain with the
    last node attached to node 2)."""
    if letter == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif letter == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        edges = [(i, i + 1) for i in range(n - 2)] + [(2, n - 1)]
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = -2
    for i, j in edges:
        g[i][j] = g[j][i] = 1
    return tuple(map(tuple, g))


def spec_gram(spec: str) -> tuple:
    """Gram of a sum like "D4+A2" of irreducible root lattices."""
    return block_diag(*(ade_gram(t[0], int(t[1:])) for t in spec.split("+")))


def k3_gram() -> tuple:
    """3U + 2E8, the even unimodular lattice of signature (3, 19)."""
    e8 = ade_gram("E", 8)
    return block_diag(U, U, U, e8, e8)


def embed22(block) -> tuple:
    """A 4x4 block acting on the first two U summands, identity beyond."""
    return block_diag(block, identity(18))


def swap22() -> tuple:
    """The involution exchanging the two E8 summands of 3U + 2E8."""
    rows = [[0] * 22 for _ in range(22)]
    for i in range(6):
        rows[i][i] = 1
    for i in range(8):
        rows[6 + i][14 + i] = 1
        rows[14 + i][6 + i] = 1
    return tuple(map(tuple, rows))


def flip22() -> tuple:
    """Negate the first hyperbolic block; with kappa -1 this is an
    anti-holomorphic involution."""
    return tuple(
        tuple((-1 if i < 2 else 1) if i == j else 0 for j in range(22)) for i in range(22)
    )


def base_action(kind: str) -> dict:
    """Gram and (name, matrix, kappa) generators of a benchmark action in
    its standard basis."""
    if kind in ("d3_S", "d3_Sprime"):
        inv = INV_A if kind == "d3_S" else INV_B
        gens = (("t", embed22(ROT3), 1), ("s", embed22(inv), -1))
        return {"gram": k3_gram(), "gens": gens}
    if kind == "e8_swap":
        return {"gram": k3_gram(), "gens": (("w", swap22(), 1),)}
    if kind == "k3_lattice":
        return {"gram": k3_gram(), "gens": (("id", identity(22), 1),)}
    if kind == "flip":
        return {"gram": k3_gram(), "gens": (("c", flip22(), -1),)}
    if kind == "klein":
        gens = (("t", block_diag(ROT3, I2), 1), ("s", block_diag(INV_A, I2), -1))
        return {"gram": block_diag(U, U, U), "gens": gens}
    raise ValueError(f"unknown action kind {kind!r}")


def random_unimodular(rng: random.Random, n: int, additions: int) -> tuple:
    """(B, B^-1) for a random product of elementary integer row operations:
    exactly ``additions`` row additions (coefficient +-1 or +-2), as many
    row swaps and as many row negations, in random order.  Fixing the count
    of each kind keeps the entry sizes, and so the cost of an item, from
    varying with the seed more than the choice of rows makes them.

    Each row operation E applied to B is undone on the right of B^-1 by
    the matching column operation of E^-1, so no division is ever needed.
    """
    b = [list(r) for r in identity(n)]
    inv = [list(r) for r in identity(n)]
    kinds = [0, 1, 2] * additions
    rng.shuffle(kinds)
    for kind in kinds:
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        j += j >= i  # j != i
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            for k in range(n):
                b[i][k] += c * b[j][k]
                inv[k][j] -= c * inv[k][i]
        elif kind == 1:
            b[i], b[j] = b[j], b[i]
            for row in inv:
                row[i], row[j] = row[j], row[i]
        else:
            b[i] = [-x for x in b[i]]
            for row in inv:
                row[i] = -row[i]
    return tuple(map(tuple, b)), tuple(map(tuple, inv))


def change_basis(action: dict, b, b_inv, rows=()) -> dict:
    """The same action (and root rows) written in the basis given by the
    columns of b: Gram B^T G B, generators B^-1 g B, vectors B^-1 v."""
    gram = mat_mul(mat_mul(transpose(b), action["gram"]), b)
    gens = tuple((name, mat_mul(mat_mul(b_inv, g), b), k) for name, g, k in action["gens"])
    out = {"gram": gram, "gens": gens}
    if rows:
        out["rows"] = tuple(mat_vec(b_inv, r) for r in rows)
    return out


def _additions(rank: int) -> int:
    # the mean count of row additions in the acceptance tests' randomized
    # bases (6 or 8 random steps, a third of them additions)
    return 2 if rank > 8 else 3


def random_copy(rng: random.Random, kind: str, rows=()) -> dict:
    action = base_action(kind)
    n = len(action["gram"])
    b, b_inv = random_unimodular(rng, n, _additions(n))
    out = change_basis(action, b, b_inv, rows)
    out["kind"] = kind
    return out


def pad(row, n: int) -> tuple:
    return tuple(row) + (0,) * (n - len(row))


def round_rng(seed: int, workload: str, index: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{index}")


def basis_rng(workload: str, index: int) -> random.Random:
    """Draws the work of round ``index``, the same for every seed."""
    return random.Random(f"bases:{workload}:{index}")


def sign_flip(item: dict, rng: random.Random) -> dict:
    """The item in the basis e_i -> s_i e_i for random signs s_i: Gram
    D G D, generators D g D and vectors D v, with D = diag(s)."""
    if "gram" not in item:
        return item
    signs = tuple(rng.choice((-1, 1)) for _ in item["gram"])

    def mat(m):
        return tuple(tuple(s * t * x for t, x in zip(signs, row)) for s, row in zip(signs, m))

    def vec(v):
        return tuple(s * x for s, x in zip(signs, v))

    out = dict(item, gram=mat(item["gram"]))
    if "gens" in item:
        out["gens"] = tuple((name, mat(g), k) for name, g, k in item["gens"])
    if "rows" in item:
        out["rows"] = tuple(vec(r) for r in item["rows"])
    for key in ("u1", "u2"):
        if key in item:
            out[key] = vec(item[key])
    return out


def signed_round(seed: int, workload: str, index: int, items: list) -> list:
    rng = round_rng(seed, workload, index)
    return [sign_flip(item, rng) for item in items]


def analyze_round(seed: int, index: int) -> list:
    """One fresh random-basis copy of every analysed action."""
    rng = basis_rng("analyze", index)
    items = [random_copy(rng, kind) for kind in ANALYZE_KINDS]
    return signed_round(seed, "analyze", index, items)


def degenerate_round(seed: int, index: int) -> list:
    """(action, root rows) pairs: Klein actions at their A2 wall systems
    and at an A1, and one rank-22 sign-flip and two E8-swap actions at
    nA1 systems; n cycles with the round so every system size recurs."""
    rng = basis_rng("degenerate", index)
    items = []
    for i in range(3):
        rows = (WALL_A2_ROOTS[i], WALL_A2_ROOTS[(i + 1) % 3])
        items.append(dict(random_copy(rng, "klein", rows), system="A2", roots=6))
    items.append(dict(random_copy(rng, "klein", (BLOCK_ROOTS[2],)), system="A1", roots=2))
    rank22 = (("flip", index % 3), ("e8_swap", index % 3), ("e8_swap", (index + 1) % 3))
    for kind, k in rank22:
        rows = tuple(pad(r, 22) for r in BLOCK_ROOTS[: k + 1])
        items.append(
            dict(random_copy(rng, kind, rows), system=f"{k + 1}A1", roots=2 * (k + 1))
        )
    return signed_round(seed, "degenerate", index, items)


def hyperbolic_query(rng: random.Random) -> dict:
    """A rank-2..4 hyperbolic lattice in a random basis with the isotropic
    pair u1, u2 of its U summand, and target squares -2, -4, -6."""
    gram = block_diag(*HYPERBOLIC_GRAMS[rng.randrange(len(HYPERBOLIC_GRAMS))])
    n = len(gram)
    b, b_inv = random_unimodular(rng, n, 2)
    return {
        "gram": mat_mul(mat_mul(transpose(b), gram), b),
        "u1": mat_vec(b_inv, pad((1,), n)),
        "u2": mat_vec(b_inv, pad((0, 1), n)),
        "targets": (-2, -4, -6),
    }


def enumerate_round(seed: int, index: int) -> list:
    """A random-basis copy of each definite root lattice, hyperbolic
    segment queries and one bounded order-3 classification of U+U."""
    rng = basis_rng("enumerate", index)
    items = []
    for spec in DEFINITE_SPECS:
        gram = spec_gram(spec)
        b, _ = random_unimodular(rng, len(gram), _additions(len(gram)))
        items.append({"kind": "vectors", "spec": spec,
                      "gram": mat_mul(mat_mul(transpose(b), gram), b)})
    for _ in range(8):
        items.append(dict(hyperbolic_query(rng), kind="segment"))
    items.append({"kind": "classify", "bound": 1})
    return signed_round(seed, "enumerate", index, items)


FIXTURES = ("d3_S", "d3_Sprime", "e8_swap", "k3_lattice")


def fixture_file_text(action: dict, comment: str) -> str:
    """An action file in the library's canonical form: fixed key order,
    two-space indentation, integers as decimal strings."""
    obj = {
        "comment": comment,
        "gram": [[str(x) for x in row] for row in action["gram"]],
        "generators": [
            {"name": name, "matrix": [[str(x) for x in row] for row in m],
             "kappa": "+1" if k == 1 else "-1"}
            for name, m, k in action["gens"]
        ],
    }
    return json.dumps(obj, indent=2) + "\n"


def cli_round(seed: int, index: int) -> list:
    """One cold command per item, on bundled fixture files (compared byte
    for byte with a stored reference) and on random-basis copies (checked
    for basis-invariant answers).  "file" names a bundled fixture file,
    "action" an action the runner writes to a file first."""
    rng = basis_rng("cli", index)
    signs = round_rng(seed, "cli", index)
    fx = FIXTURES[index % 4]
    walls_bundled, walls_copy = (("d3_S", "d3_Sprime"), ("d3_Sprime", "d3_S"))[index % 2]
    check_copy = ANALYZE_KINDS[index % 5]
    check_action, walls_action = (sign_flip(random_copy(rng, kind), signs)
                                  for kind in (check_copy, walls_copy))
    swap = sign_flip(random_copy(rng, "e8_swap", (pad(BLOCK_ROOTS[0], 22),)), signs)
    swap_root = ",".join(map(str, swap.pop("rows")[0]))
    u1_minus_v1 = ",".join(map(str, pad(BLOCK_ROOTS[0], 22)))
    return [
        {"argv": ("catalog", fx), "ref": f"catalog_{fx}"},
        {"argv": ("check",), "file": fx, "ref": f"check_{fx}"},
        {"argv": ("check",), "action": check_action, "expect": check_copy},
        {"argv": ("walls",), "file": walls_bundled, "ref": f"walls_{walls_bundled}"},
        {"argv": ("walls",), "action": walls_action, "expect": walls_copy},
        {"argv": ("discr",), "file": fx, "ref": f"discr_{fx}"},
        {"argv": ("degenerate", f"--roots={u1_minus_v1}"), "file": "e8_swap",
         "ref": "degenerate_e8_swap"},
        {"argv": ("degenerate", f"--roots={swap_root}"), "action": swap,
         "expect": "e8_swap_A1"},
        {"argv": ("survey", "torus"), "ref": "survey_torus"},
        {"argv": ("classify", "order3-2u", "--bound", "1"), "ref": "classify_order3-2u"},
    ]


def fingerprint(items) -> str:
    """Canonical text of generated inputs, for determinism checks."""
    return json.dumps(items, sort_keys=True)
