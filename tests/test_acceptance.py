"""End-to-end acceptance checks with pinned wall-clock budgets.

Each test prints exactly one line, ACCEPTANCE <n>: PASS or FAIL plus a
short summary and its elapsed time, so the verbose test log doubles as a
scoreboard. Failures still raise, with the offending sub-checks listed.
All arithmetic is exact; the only tolerances are the time budgets, which
are stated in the printed line.
"""

import itertools
import random
import time

import helpers
import lattact.linalg as la
from lattact import (
    InputError,
    Lattice,
    LatticeAction,
    classify_admissible_b_transitive,
    classify_order3_on_2U,
    d3_full_pipeline,
    degenerate,
    dilated_complex_structure,
    eigen_lattices,
    enumerate_vectors,
    extend_equivariantly,
    fixed_lattice,
    fixture,
    fold_reflection,
    fundamental_data,
    is_geometric,
    reflection,
    roots_of,
    segment_vectors,
    signature,
    standard_lattice,
    tau_saturation,
    torus_symplectic_survey,
    verify_degeneration,
    wall_report,
    wedge_square,
)
from lattact.catalog import _split_rank2_class, _wall_normal
from lattact.cli import main as cli_main
from lattact.degeneration import SaturatedSystem
from lattact.lattice import sublattice_from_rows
from lattact.root_systems import Camera

L22 = standard_lattice("3U+2E8")
E8 = standard_lattice("E8")


def report(capsys, number, bad, summary, elapsed, limit=None):
    ok = not bad and (limit is None or elapsed <= limit)
    budget = f"{elapsed:.2f}s" + (f" of {limit:.0f}s" if limit is not None else "")
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {summary} [{budget}]"
    with capsys.disabled():
        print(line)
    assert not bad, "; ".join(bad)
    if limit is not None:
        assert elapsed <= limit, f"wall clock {elapsed:.2f}s over the {limit:.0f}s budget"


def check(bad, cond, label):
    if not cond:
        bad.append(label)


def pad22(row):
    return tuple(row) + (0,) * (22 - len(row))


def conjugated_action(action, rows, b):
    """The same action and system rows written in the basis b."""
    b_inv = la.inverse_int(b)
    gram = helpers.conjugate_gram(action.ambient.gram, b)
    gens = tuple(
        (name, la.mat_mul(la.mat_mul(b_inv, g.matrix), b), kappa)
        for name, g, kappa in action.generators
    )
    new_rows = tuple(tuple(la.mat_vec(b_inv, r)) for r in rows)
    return LatticeAction(Lattice(gram), gens), new_rows


# ---------------------------------------------------------------------------
# 1 and 2: the two order-3 reflection pipelines


def test_criterion_01_main_pipeline(capsys):
    t0 = time.perf_counter()
    bad = []
    pipe = d3_full_pipeline("S")
    check(bad, pipe.all_passed, f"pipeline entries {pipe.entries!r}")

    a = fixture("d3_S").action
    f = fundamental_data(a)
    check(bad, (f.order_n, f.real) == (3, False), "rotation order or reality")
    check(
        bad,
        fixed_lattice(a, "all").gram() == standard_lattice("U+2E8").gram,
        "fixed lattice gram",
    )
    e = eigen_lattices(a, f)
    check(bad, e.m_plus.gram() == ((-2, 2), (2, 0)), "plus eigenlattice gram")
    check(bad, e.exponent == 2, "dilation exponent")
    j = dilated_complex_structure(a, f)
    rep = wall_report(e, j)
    check(bad, rep.complete, "candidate enumeration incomplete")
    check(bad, rep.candidate_count == 10, f"candidate count {rep.candidate_count}")
    check(bad, len(rep.walls) == 2, f"wall count {len(rep.walls)}")
    check(bad, rep.components == 3, f"component count {rep.components}")
    rays = tuple(sorted(w.direction for w in rep.walls))
    check(bad, rays == ((1, 1), (3, 2)), f"wall rays {rays}")
    normals = tuple(sorted(_wall_normal(w, j) for w in rep.walls))
    check(bad, normals == ((1, 0, 1, -1), (3, 1, 3, -2)), f"wall normals {normals}")
    report(
        capsys, 1, bad,
        "order-3 main action: full pipeline, 2 walls cutting 3 components",
        time.perf_counter() - t0, 5.0,
    )


def test_criterion_02_split_pipeline(capsys):
    t0 = time.perf_counter()
    bad = []
    pipe = d3_full_pipeline("Sprime")
    check(bad, pipe.all_passed, f"pipeline entries {pipe.entries!r}")

    a = fixture("d3_Sprime").action
    f = fundamental_data(a)
    e = eigen_lattices(a, f)
    for label, part in (("plus", e.m_plus), ("minus", e.m_minus)):
        lat = part.as_lattice()
        check(bad, _split_rank2_class(lat) == "U(2)", f"{label} eigenlattice class")
        pairs = enumerate_vectors(lat, -4, up_to_sign=True)
        check(bad, len(pairs) == 1, f"{label} square -4 pairs {len(pairs)}")
    j = dilated_complex_structure(a, f)
    rep = wall_report(e, j)
    check(bad, rep.complete, "candidate enumeration incomplete")
    check(bad, rep.candidate_count == 2, f"candidate count {rep.candidate_count}")
    check(bad, rep.walls == (), f"wall count {len(rep.walls)}")
    check(bad, rep.components == 1, f"component count {rep.components}")
    report(
        capsys, 2, bad,
        "order-3 split action: U(2) eigenlattices, no walls, one component",
        time.perf_counter() - t0, 5.0,
    )


# ---------------------------------------------------------------------------
# 3: pinned vector counts


def test_criterion_03_vector_counts(capsys):
    t0 = time.perf_counter()
    bad = []
    slowest = 0.0

    def timed_count(lat, a, up_to_sign):
        nonlocal slowest
        s = time.perf_counter()
        n = len(enumerate_vectors(lat, a, up_to_sign=up_to_sign))
        slowest = max(slowest, time.perf_counter() - s)
        return n

    d = standard_lattice("diag(2,-2)")
    check(bad, timed_count(d, -2, True) == 1, "diag(2,-2) square -2 pairs")
    check(bad, timed_count(d, -6, True) == 2, "diag(2,-2) square -6 pairs")
    check(bad, timed_count(d, -4, True) == 0, "diag(2,-2) square -4 pairs")
    check(bad, timed_count(standard_lattice("U(2)"), -4, True) == 1, "U(2) square -4 pairs")
    check(bad, timed_count(E8, -2, False) == 240, "E8 root count")
    check(bad, slowest <= 1.0, f"slowest single enumeration {slowest:.2f}s")
    report(
        capsys, 3, bad,
        "vector counts 1/2/0 on diag(2,-2), 1 on U(2), 240 roots in E8, each call under 1s",
        time.perf_counter() - t0, 6.0,
    )


# ---------------------------------------------------------------------------
# 4: only the signs extend equivariantly


def test_criterion_04_extension_obstruction(capsys):
    t0 = time.perf_counter()
    bad = []
    gram = ((-2, 2), (2, 0))
    # the form is 2x(2y - x): it vanishes on exactly the primitive lines
    # (0,1) and (2,1), whose pairing is 4, so an isometry permutes the two
    # lines up to a global sign; all four such maps have entries in [-2, 2]
    isos = []
    for ent in itertools.product(range(-2, 3), repeat=4):
        m = ((ent[0], ent[1]), (ent[2], ent[3]))
        if helpers.conjugate_gram(gram, m) == gram:
            isos.append(m)
    check(bad, len(isos) == 4, f"isometry count {len(isos)}")
    check(bad, la.identity(2) in isos and ((-1, 2), (0, 1)) in isos, "expected isometries missing")

    act, f, _, e = helpers.klein_pipeline()
    check(bad, e.m_plus.gram() == gram, "plus eigenlattice gram")
    extending = [m for m in isos if extend_equivariantly(act, f, e, m) is not None]
    signs = [la.identity(2), la.mat_scale(-1, la.identity(2))]
    check(bad, sorted(extending) == sorted(signs), f"extending set {extending}")
    report(
        capsys, 4, bad,
        "of the four plus-part isometries exactly the signs extend to the rotation block",
        time.perf_counter() - t0, 1.0,
    )


# ---------------------------------------------------------------------------
# 5: transitive classification and 200 randomized foldings


FOLD_SWAP2 = ((0, 1), (1, 0))
FOLD_BLKSWAP4 = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
FOLD_CYC3 = ((0, 0, 1), (1, 0, 0), (0, 1, 0))


def reversal(n):
    return tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n)) for i in range(n))


def diag_signs(*signs):
    return tuple(tuple(signs[i] if i == j else 0 for j in range(len(signs))) for i in range(len(signs)))


def fixed_space_rows(mats, n):
    stacked = tuple(row for m in mats for row in la.mat_sub(m, la.identity(n)))
    return la.kernel_int(stacked)


def test_criterion_05_classification_and_folding(capsys):
    t0 = time.perf_counter()
    bad = []
    got = classify_admissible_b_transitive(4)
    check(bad, got == (("A1", "trivial"), ("A2", "Z2-swap")), f"rank-4 classification {got}")
    check(bad, classify_admissible_b_transitive(1) == (("A1", "trivial"),), "rank-1 classification")

    pool = (
        (standard_lattice("A2"), (FOLD_SWAP2,)),
        (standard_lattice("A2"), ()),
        (standard_lattice("A3"), (reversal(3),)),
        (standard_lattice("A4"), (reversal(4),)),
        (standard_lattice("A5"), (reversal(5),)),
        (standard_lattice("2A2"), (FOLD_BLKSWAP4,)),
        (standard_lattice("3A1"), (FOLD_CYC3,)),
        (standard_lattice("3A1"), (FOLD_CYC3, reversal(3))),
        (standard_lattice("2A1"), (diag_signs(1, -1),)),
        (standard_lattice("3A1"), (diag_signs(1, -1, -1),)),
        (standard_lattice("3A1"), (diag_signs(1, 1, -1), reversal(3))),
    )
    root_cache = {id(lat): roots_of(lat) for lat, _ in pool}
    rng = random.Random(20260815)
    done = folded = witnessed = 0
    while done < 200:
        lat, action = pool[rng.randrange(len(pool))]
        rs = root_cache[id(lat)]
        v = rs.roots[rng.randrange(len(rs.roots))]
        mats = tuple(action)
        closure = la.matrix_group_closure(mats or (la.identity(lat.rank),))
        vbar = la.zero_vec(lat.rank)
        for img in {tuple(la.mat_vec(g, v)) for g in closure}:
            vbar = la.vec_add(vbar, img)
        if all(x == 0 for x in vbar):
            continue
        res = fold_reflection(lat, action, v)
        if res.folded:
            folded += 1
            w = res.weyl.matrix
            check(bad, helpers.conjugate_gram(lat.gram, w) == lat.gram, "fold breaks the form")
            check(bad, all(la.mat_mul(w, m) == la.mat_mul(m, w) for m in mats), "fold does not commute")
            check(bad, tuple(la.mat_vec(w, vbar)) == tuple(helpers.vec_scale(-1, vbar)),
                  "fold does not negate the orbit sum")
        else:
            witnessed += 1
            wr = res.witness_root
            check(bad, lat.sq(wr) == -2, "witness is not a root")
            for row in fixed_space_rows(mats, lat.rank):
                check(bad, lat.dot(wr, row) == 0, "witness meets the fixed space")
        done += 1
        if bad:
            break
    check(bad, done == 200, f"instances run {done}")
    check(bad, folded > 0 and witnessed > 0, f"branch mix folded={folded} witnessed={witnessed}")
    report(
        capsys, 5, bad,
        f"rank-4 classification pinned; 200 foldings verified ({folded} folded, {witnessed} witnessed)",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 6: 52 randomized degenerations with camera-conjugacy witnesses


WALL_A2_ROOTS = (
    (-1, 1, 0, 0, 0, 0),
    (1, 0, 1, -1, 0, 0),
    (0, 1, 1, -1, 0, 0),
)


def sign_flip_22():
    m = diag_signs(*([-1, -1] + [1] * 20))
    return LatticeAction(L22, (("c", m, -1),))


def e8_swap_22():
    m = [[0] * 22 for _ in range(22)]
    for i in range(6):
        m[i][i] = 1
    for i in range(8):
        m[6 + i][14 + i] = 1
        m[14 + i][6 + i] = 1
    return LatticeAction(L22, (("w", tuple(map(tuple, m)), 1),))


def degeneration_instances(rng):
    """52 (action, system rows) pairs, most in a randomized basis."""
    klein = helpers.klein_pipeline()[0]
    out = []
    for i in range(40):
        pair = [WALL_A2_ROOTS[i % 3], WALL_A2_ROOTS[(i + 1) % 3]]
        b = helpers.random_unimodular(rng, 6, steps=8)
        out.append(conjugated_action(klein, tuple(pair), b))
    flip = sign_flip_22()
    flip_rows = (
        (pad22((1, -1)),),
        (pad22((1, -1)), pad22((0, 0, 1, -1))),
        (pad22((0, 0, 1, -1)),),
        (pad22((0, 0, 1, -1)), pad22((0, 0, 0, 0, 1, -1))),
        (pad22((1, -1)), pad22((0, 0, 0, 0, 1, -1))),
        (pad22((1, -1)), pad22((0, 0, 1, -1)), pad22((0, 0, 0, 0, 1, -1))),
    )
    for rows in flip_rows:
        out.append(conjugated_action(flip, rows, helpers.random_unimodular(rng, 22, steps=6)))
    swap = e8_swap_22()
    swap_rows = (
        (pad22((1, -1)),),
        (pad22((0, 0, 1, -1)),),
        (pad22((0, 0, 0, 0, 1, -1)),),
        (pad22((1, -1)), pad22((0, 0, 1, -1))),
        (pad22((0, 0, 1, -1)), pad22((0, 0, 0, 0, 1, -1))),
        (pad22((1, -1)), pad22((0, 0, 0, 0, 1, -1))),
    )
    for rows in swap_rows:
        out.append(conjugated_action(swap, rows, helpers.random_unimodular(rng, 22, steps=5)))
    return out


def test_criterion_06_randomized_degenerations(capsys):
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(61)
    instances = degeneration_instances(rng)
    check(bad, len(instances) >= 50, f"instance count {len(instances)}")
    witnessed = 0
    for idx, (a, rows) in enumerate(instances):
        f = fundamental_data(a)
        r = sublattice_from_rows(a.ambient, rows)
        sat = tau_saturation(a, f, r)
        d1 = degenerate(a, sat)
        rep = verify_degeneration(a, sat, d1)
        check(bad, rep.all_passed, f"instance {idx} failed: {rep.entries!r}")
        if bad:
            break
        r_bar = sat.r_bar
        if not r_bar.roots:
            continue
        weyl = la.matrix_group_closure(
            tuple(reflection(a.ambient, rt).matrix for rt in r_bar.simple_roots)
        )
        check(bad, len(weyl) <= 1152, f"instance {idx} Weyl order {len(weyl)}")
        # a second camera, one reflection away, must degenerate to a
        # Weyl-conjugate action
        w0 = reflection(a.ambient, r_bar.roots[0]).matrix
        cam2 = Camera(
            r_bar,
            tuple(tuple(la.mat_vec(w0, w)) for w in sat.camera.walls),
            tuple(la.mat_vec(w0, sat.camera.witness)),
        )
        d2 = degenerate(a, SaturatedSystem(sat.r_input, r_bar, cam2, sat.data))
        s1 = {name: g.matrix for name, g, _ in d1.action.generators}
        s2 = {name: g.matrix for name, g, _ in d2.action.generators}
        hit = any(
            all(s2[n] == la.mat_mul(la.mat_mul(w, s1[n]), la.inverse_int(w)) for n in s1)
            for w in weyl
        )
        check(bad, hit, f"instance {idx} has no Weyl conjugacy witness")
        witnessed += 1
        if bad:
            break
    report(
        capsys, 6, bad,
        f"{len(instances)} degenerations verified, {witnessed} camera changes matched by Weyl conjugation",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 7: segment crossings against a box scan


def test_criterion_07_segment_box_scan(capsys):
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(777)
    bases = {
        2: (((0, 1), (1, 0)), ((0, 2), (2, 0))),
        3: tuple(
            la.freeze_mat(helpers.block_diag(((0, 1), (1, 0)), ((d,),)))
            for d in (-2, -4, -6)
        ),
        4: tuple(
            la.freeze_mat(helpers.block_diag(((0, 1), (1, 0)), ((d1, 0), (0, d2))))
            for d1, d2 in ((-2, -2), (-2, -6), (-4, -2))
        ),
    }
    plan = [2] * 55 + [3] * 33 + [4] * 12
    targets = (-2, -4, -6)
    for n in plan:
        base = bases[n][rng.randrange(len(bases[n]))]
        b = helpers.random_unimodular(rng, n, steps=6)
        m = Lattice(helpers.conjugate_gram(base, b))
        b_inv = la.inverse_int(b)
        u1 = tuple(la.mat_vec(b_inv, (1,) + (0,) * (n - 1)))
        u2 = tuple(la.mat_vec(b_inv, (0, 1) + (0,) * (n - 2)))
        got = {}
        for a in targets:
            vs = segment_vectors(m, u1, u2, a)
            for v in vs:
                check(bad, m.sq(v) == a, f"returned square {m.sq(v)} wants {a}")
                check(bad, m.dot(v, u1) * m.dot(v, u2) < 0, "returned vector does not cross")
            got[a] = {v for v in vs if max(map(abs, v)) <= 10}
        box = {a: set() for a in targets}
        for v in itertools.product(range(-10, 11), repeat=n):
            q = m.sq(v)
            if q in box and m.dot(v, u1) * m.dot(v, u2) < 0:
                box[q].add(v)
        check(bad, box == got, f"box scan mismatch on gram {m.gram}")
        if bad:
            break
    report(
        capsys, 7, bad,
        "100 randomized hyperbolic segments agree with exhaustive box scans at bound 10",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 8: bounded order-3 classification on the doubled hyperbolic plane


def test_criterion_08_order3_classification(capsys):
    t0 = time.perf_counter()
    bad = []
    rep = classify_order3_on_2U(2)
    check(bad, len(rep.hits) > 0, "no matrices found")
    check(bad, set(rep.classes) == {"0", "A2", "A2(-1)"}, f"classes {rep.classes}")
    lat = standard_lattice("2U")
    for hit in rep.hits:
        m = hit.matrix
        check(bad, helpers.conjugate_gram(lat.gram, m) == lat.gram, "hit is not an isometry")
        check(bad, helpers.mat_pow(m, 3) == la.identity(4) and m != la.identity(4), "hit order")
        check(bad, hit.fixed_class in {"0", "A2", "A2(-1)"}, f"class label {hit.fixed_class}")
    report(
        capsys, 8, bad,
        f"{len(rep.hits)} order-3 isometries found, fixed classes exactly 0, A2, A2(-1)",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 9: symplectic survey orders and explicit E8 embeddings


def test_criterion_09_survey(capsys):
    t0 = time.perf_counter()
    bad = []
    rep = torus_symplectic_survey()
    check(bad, rep.all_consistent, "survey flagged an inconsistency")
    expected = {"A3": (24, 12), "A2+A1": (12, 6), "3A1": (8, 4)}
    seen = {}
    for entry in rep.entries:
        seen[entry.system] = (entry.weyl_order, entry.rotation_order)
        emb = entry.embedding
        check(bad, len(emb) == len(entry.gram), f"{entry.system} embedding size")
        for i, v in enumerate(emb):
            check(bad, E8.sq(v) == -2, f"{entry.system} embedding vector square")
            for k in range(i + 1, len(emb)):
                check(
                    bad,
                    E8.dot(v, emb[k]) == entry.gram[i][k],
                    f"{entry.system} embedding pairing {i},{k}",
                )
    check(bad, seen == expected, f"orders {seen}")
    report(
        capsys, 9, bad,
        "survey orders (12, 6, 4) with explicit root embeddings into E8",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 10: the rank-6 wedge pairing and its induced isometries


def test_criterion_10_wedge_square(capsys):
    t0 = time.perf_counter()
    bad = []
    pairs = tuple((i, j) for i in range(4) for j in range(i + 1, 4))

    def perm_sign(p):
        sign = 1
        p = list(p)
        for i in range(len(p)):
            for j in range(i + 1, len(p)):
                if p[i] > p[j]:
                    sign = -sign
        return sign

    pairing = tuple(
        tuple(perm_sign(x + y) if len(set(x + y)) == 4 else 0 for y in pairs) for x in pairs
    )
    check(bad, signature(Lattice(pairing)).as_tuple() == (3, 3, 0), "wedge signature")
    check(bad, abs(la.det(pairing)) == 1, "wedge determinant")
    check(bad, all(pairing[i][i] % 2 == 0 for i in range(6)), "wedge parity")

    rng = random.Random(1010)

    def random_sl4():
        m = helpers.random_unimodular(rng, 4)
        if la.det(m) == -1:
            m = (tuple(-x for x in m[0]),) + m[1:]
        return m

    for _ in range(100):
        x, y = random_sl4(), random_sl4()
        wx, wy = wedge_square(x).matrix, wedge_square(y).matrix
        if wedge_square(la.mat_mul(x, y)).matrix != la.mat_mul(wx, wy):
            check(bad, False, f"not multiplicative at {x}, {y}")
            break
    minus = la.mat_scale(-1, la.identity(4))
    check(bad, wedge_square(minus).matrix == la.identity(6), "-id must map to the identity")
    try:
        wedge_square((tuple(-x for x in la.identity(4)[0]),) + la.identity(4)[1:])
        check(bad, False, "determinant -1 accepted")
    except InputError:
        pass
    report(
        capsys, 10, bad,
        "wedge pairing is even unimodular of signature (3,3); induced map multiplicative, kills -id",
        time.perf_counter() - t0, 10.0,
    )


# ---------------------------------------------------------------------------
# 11: randomized law suites and byte-identical reports


def test_criterion_11_property_laws_and_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    bad = []
    rng = random.Random(111)

    # law 1: primitive_vector is scale invariant with coprime positive output
    for _ in range(1200):
        n = rng.randint(1, 6)
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(x == 0 for x in v):
            continue
        c = rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        p = la.primitive_vector(v)
        check(bad, la.primitive_vector(helpers.vec_scale(c, v)) == p, "primitive_vector scale law")
        check(bad, la.vec_gcd(p) == 1, "primitive_vector gcd law")
        check(bad, next(x for x in p if x) > 0, "primitive_vector sign law")
        if bad:
            break

    # law 2: appending an integer combination of rows never changes the HNF
    for _ in range(1000):
        k, n = rng.randint(1, 3), rng.randint(2, 4)
        rows = tuple(tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(k))
        h = la.hnf(rows)
        combo = la.zero_vec(n)
        for r in rows:
            combo = la.vec_add(combo, helpers.vec_scale(rng.randint(-3, 3), r))
        check(bad, la.hnf(rows + (tuple(combo),)) == h, "HNF row-combination law")
        check(bad, all(la.coords_in_rows(r, h) is not None for r in rows), "HNF membership law")
        if bad:
            break

    # law 3: root reflections are Gram-preserving involutions negating the root
    pool = tuple(standard_lattice(name) for name in ("A2", "A3", "D4", "3A1"))
    pool_roots = tuple(roots_of(lat).roots for lat in pool)
    for _ in range(1000):
        i = rng.randrange(len(pool))
        lat, roots = pool[i], pool_roots[i]
        v = roots[rng.randrange(len(roots))]
        m = reflection(lat, v).matrix
        check(bad, la.mat_mul(m, m) == la.identity(lat.rank), "reflection involution law")
        check(bad, helpers.conjugate_gram(lat.gram, m) == lat.gram, "reflection isometry law")
        check(bad, tuple(la.mat_vec(m, v)) == helpers.vec_scale(-1, v), "reflection negation law")
        if bad:
            break

    # law 4: elementary divisors multiply to |det| and divide in order
    for _ in range(1000):
        m = tuple(tuple(rng.randint(-6, 6) for _ in range(3)) for _ in range(3))
        d = la.det(m)
        if d == 0:
            continue
        divs = helpers.elementary_divisors(m)
        prod = 1
        for x in divs:
            prod *= x
        check(bad, prod == abs(d), "divisor product law")
        check(bad, all(divs[i + 1] % divs[i] == 0 for i in range(len(divs) - 1)), "divisor chain law")
        if bad:
            break

    # law 5: bounded enumeration agrees with a box scan on definite planes
    for _ in range(1000):
        b = helpers.random_unimodular(rng, 2, steps=4)
        g = helpers.conjugate_gram(((-2, 0), (0, -4)), b)
        lat = Lattice(g)
        a = rng.choice((-2, -4, -6, -8))
        found = set(enumerate_vectors(lat, a))
        boxed = {
            v
            for v in itertools.product(range(-8, 9), repeat=2)
            if lat.sq(v) == a
        }
        check(bad, boxed == {v for v in found if max(map(abs, v)) <= 8}, "enumeration box law")
        check(bad, all(lat.sq(v) == a for v in found), "enumeration square law")
        if bad:
            break

    # byte-identical reports across repeated invocations
    def run_cli(*argv):
        capsys.readouterr()
        code = cli_main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    path = str(tmp_path / "d3_S.json")
    code, text, _ = run_cli("catalog", "d3_S")
    check(bad, code == 0, "catalog invocation failed")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    invocations = (
        ("catalog", "d3_S"),
        ("check", path, "--format", "lines"),
        ("check", path),
        ("walls", path, "--format", "lines"),
        ("classify", "order3-2u", "--bound", "1", "--format", "lines"),
        ("survey", "torus", "--format", "lines"),
        ("discr", path, "--format", "lines"),
    )
    for argv in invocations:
        first = run_cli(*argv)
        second = run_cli(*argv)
        check(bad, first == second, f"nondeterministic output for {argv}")
        if bad:
            break
    report(
        capsys, 11, bad,
        "five randomized law suites (1000+ cases each) and byte-identical repeated reports",
        time.perf_counter() - t0,
    )
