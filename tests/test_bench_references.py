"""The benchmark's `analyze`, `enumerate` and `degenerate` workloads check
every item against references that do not come from the library: the
fixtures' expected group, rotation and wall records, closed-form vector
and root counts, its own integer arithmetic for squares and crossings,
the order-3 isometry conditions, and a passing five-point degeneration
report. One seeded round of each runs here, so a change that breaks
those answers fails tier-1 rather than only a benchmark run. The
`analyze` and `degenerate` rounds also guard which eliminations run:
no Smith form and no rref; the `degenerate` round builds no
Fraction at all. Their round 0 also guards what is derived once: one
group closure per action, one Dynkin diagram per root system, and
objects built without re-checks equal to what the public constructors
build. The CLI's stdout is compared with every `cli_ref` file, and a
hash of the repr of every round-0 result pins the bytes out, and
`tools/round_digest.py` reproduces that hash. The
`enumerate` round solves no coordinates root by root (`coords_in_rows`)
and takes no determinant in `segment_vectors`, and the positive and simple roots of both rounds' root systems match
that root-by-root reference, their simple coordinates read off the height
walk matching the echelon solve of `simple_coords`. Each `enumerate`
vectors item runs two searches, one per square (roots_of reads the kept
one), solves no simple coordinates (no `inverse_int`) and LLL-reduces no
basis; in a skewed basis the e8_swap items of
`analyze` and `degenerate` finish within a time bound, and so do the
walls of the d3_S, d3_Sprime and Klein actions, in the library and
through `lattact walls`. The `degenerate` round runs a third fewer
integer kernels than it did before it reused the action's fixed
lattice, takes no determinant, solves no coordinates in
`primitive_hull`, and eliminates each ambient Gram once; its saturation builds one root
system per primitive hull, restricts each generator to the input system
once and maps no saturated root by a generator. On rounds 0-2 `degenerate` decomposes each
generator once, and every element decomposed on its own has the product
of its generators' factors as its camera factor. Where its sign
kernel is trivial, no group element is restricted to the identity basis
and no sum is taken with the full-rank rotation block. No `analyze` item
eliminates an equal Gram of rank above two twice. On both rounds the
Jacobi elimination's basis rows are replayed only for
`_positive_directions`."""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports gen by its bare name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def _guard_eliminations(monkeypatch):
    """Record Smith forms and rref calls: on these rounds the library takes
    no Smith form (only discriminant forms need one) and no rref (only
    rank and solve use it)."""
    from lattact import linalg as la

    from helpers import count_calls

    return count_calls(monkeypatch, la, "snf"), count_calls(monkeypatch, la, "rref")


def _count_fractions(monkeypatch):
    """Record every Fraction construction, arithmetic results included."""
    from fractions import Fraction

    original = Fraction.__new__
    made = []

    def recording(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(recording))
    return made


def test_enumerate_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    from lattact import linalg as la

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Enumerate(7, tmp_path)
    items = workload.round(0)
    coords = count_calls(monkeypatch, la, "coords_in_rows")
    kinds = [item["kind"] for item in items]
    assert (kinds.count("vectors"), kinds.count("segment"), kinds.count("classify")) == (21, 8, 1)
    assert [item["bound"] for item in items if item["kind"] == "classify"] == [1]
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item.get("spec", item["kind"]), problem))
    assert failures == []
    assert coords == []


def test_enumerate_round_searches_once_per_square(monkeypatch, tmp_path):
    """Each vectors item runs two searches, at -2 and -4: roots_of reads
    the -2 one that the item's lattice already holds. Its root system
    solves no simple coordinates (no inverse_int), and no Gram of the
    round is skewed enough to be LLL-reduced first."""
    from lattact import lattice
    from lattact import linalg as la

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Enumerate(7, tmp_path)
    items = [item for item in workload.round(0) if item["kind"] == "vectors"]
    searches = count_calls(monkeypatch, lattice, "_definite_search")
    reductions = count_calls(monkeypatch, lattice, "_lll")
    inverses = count_calls(monkeypatch, la, "inverse_int")
    for item in items:
        before = len(searches)
        result = workload.run(item)
        assert workload.check(item, result) is None
        assert len(searches) - before == 2, item["spec"]
    assert inverses == []
    assert reductions == []


def _skewed(gen, item, rows=()):
    """item in the basis of random_unimodular(Random(11), n, 120): row
    additions compound into entries in the hundreds, a skewed basis."""
    import random

    b, b_inv = gen.random_unimodular(random.Random(11), len(item["gram"]), 120)
    return dict(item, **gen.change_basis(item, b, b_inv, rows))


def test_skewed_bases_finish_with_the_benchmark_records(monkeypatch, tmp_path):
    """In a skewed basis the search runs on an LLL-reduced one: `analyze`
    on e8_swap (is_geometric searches its rank-8 leftover) and the two
    e8_swap items of `degenerate` round 0 each finish within 5 s, where
    the search in the given basis took over 40 s, with the benchmark's
    expected records."""
    import time

    from lattact import lattice

    from helpers import count_calls

    gen = _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    reductions = count_calls(monkeypatch, lattice, "_lll")
    analyze = workloads.Analyze(7, tmp_path)
    item = _skewed(gen, dict(gen.base_action("e8_swap"), kind="e8_swap"))
    start = time.perf_counter()
    result = analyze.run(item)
    assert time.perf_counter() - start < 5.0
    assert analyze.check(item, result) is None and result[3][0] is True
    degenerate = workloads.Degenerate(7, tmp_path)
    for item in gen.degenerate_round(7, 0)[5:7]:
        assert item["kind"] == "e8_swap"
        item = _skewed(gen, item, item["rows"])
        start = time.perf_counter()
        result = degenerate.run(item)
        assert time.perf_counter() - start < 5.0
        assert degenerate.check(item, result) is None
    assert reductions


def test_walls_finish_in_a_heavily_skewed_basis(monkeypatch, tmp_path):
    """In the basis of random_unimodular(Random(11), n, 1000) the Gram
    entries of the eigenlattices run to dozens of digits. The split-form
    solver walks the divisors of the target only, so wall_report on
    d3_S, d3_Sprime and the Klein action finishes within 2 s with the
    benchmark's records (the divisor search over A t ran past 60 s), and
    `lattact walls` on the Klein file exits 0 within 10 s."""
    import os
    import random
    import subprocess
    import time

    import lattact

    gen = _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    analyze = workloads.Analyze(7, tmp_path)
    for kind in ("d3_S", "d3_Sprime", "klein"):
        item = dict(gen.base_action(kind), kind=kind)
        b, b_inv = gen.random_unimodular(random.Random(11), len(item["gram"]), 1000)
        item.update(gen.change_basis(item, b, b_inv))
        a = lattact.LatticeAction(lattact.Lattice(item["gram"]), item["gens"])
        fd = lattact.fundamental_data(a)
        e = lattact.eigen_lattices(a, fd)
        j = lattact.dilated_complex_structure(a, fd)
        start = time.perf_counter()
        lattact.wall_report(e, j)
        assert time.perf_counter() - start < 2.0, kind
        assert analyze.check(item, analyze.run(item)) is None, kind
    path = tmp_path / "klein_skewed.json"
    path.write_text(gen.fixture_file_text(item, "Klein action, skewed basis"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(lattact.__file__).resolve().parents[1]))
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "lattact.cli", "walls", str(path)],
                          env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr
    assert time.perf_counter() - start < 10.0
    assert "walls.count = 2" in done.stdout


def test_enumerate_round_segments_take_no_determinant(monkeypatch, tmp_path):
    """The frame index of segment_vectors comes from the two Gram
    determinants its signatures already hold: no det and no adjugate."""
    from lattact import linalg as la
    from lattact import walls

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Enumerate(7, tmp_path)
    items = [item for item in workload.round(0) if item["kind"] == "segment"]
    dets = count_calls(monkeypatch, la, "det")
    adjugates = count_calls(monkeypatch, la, "adjugate")
    inside = []
    original = walls.segment_vectors

    def segment(*args):
        before = len(dets) + len(adjugates)
        out = original(*args)
        inside.append(len(dets) + len(adjugates) - before)
        return out

    monkeypatch.setattr(walls, "segment_vectors", segment)
    for item in items:
        assert workload.check(item, workload.run(item)) is None
    assert inside and not any(inside)


def test_roots_of_positivity_matches_span_coordinates(monkeypatch, tmp_path):
    """Positive and simple roots equal the reference solved root by root,
    and the simple coordinates read off the height walk equal the echelon
    solve's, on the 21 random-basis root lattices of the enumerate round
    and on every Sublattice the degenerate round asks roots_of about."""
    from lattact import degeneration, root_systems
    from lattact.lattice import Lattice, Sublattice

    from helpers import assert_walk_coords_match_the_solve, positive_and_simple_by_span_coords

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    items = workloads.Enumerate(7, tmp_path).round(0)
    systems = [root_systems.roots_of(Lattice(item["gram"])) for item in items if item["kind"] == "vectors"]
    original = root_systems.roots_of

    def recording(s):
        r = original(s)
        if isinstance(s, Sublattice):
            systems.append(r)
        return r

    monkeypatch.setattr(root_systems, "roots_of", recording)
    monkeypatch.setattr(degeneration, "roots_of", recording)
    workload = workloads.Degenerate(7, tmp_path)
    for item in workload.round(0):
        workload.run(item)
    assert len(systems) > 21
    for r in systems:
        assert (r.positive_roots, r.simple_roots) == positive_and_simple_by_span_coords(r)
        if r.roots:
            assert_walk_coords_match_the_solve(r)


def test_degenerate_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    items = workload.round(0)
    snf, rref = _guard_eliminations(monkeypatch)
    fractions = _count_fractions(monkeypatch)
    assert len(items) == 7
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], item["system"], problem))
    assert failures == []
    assert snf == [] and rref == []
    assert fractions == []


# kernel_int calls over round 0 of `degenerate` at seed 7, counted on the
# commit before the fundamental data and the saturation read the fixed
# lattice, the ambient elimination and the HNF pivots they already hold
KERNEL_INT_CALLS_BEFORE = 74


def test_degenerate_round_reuses_what_the_action_holds(monkeypatch, tmp_path):
    """Round 0 of `degenerate` runs at most two thirds of the integer
    kernels it ran before, no determinant, no coordinate solve inside
    primitive_hull, and eliminates each action's ambient Gram once: no
    Sublattice with the identity basis eliminates a copy of it."""
    from lattact import degeneration, lattice
    from lattact import linalg as la

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    items = workload.round(0)
    kernels = count_calls(monkeypatch, la, "kernel_int")
    dets = count_calls(monkeypatch, la, "det")
    coords = count_calls(monkeypatch, la, "coords_in_rows")
    hull_coords = []
    original_hull = lattice.primitive_hull

    def hull(*args):
        before = len(coords)
        out = original_hull(*args)
        hull_coords.append(len(coords) - before)
        return out

    for module in (lattice, degeneration):
        monkeypatch.setattr(module, "primitive_hull", hull)
    # the elimination overwrites its argument: record the Gram on entry
    eliminated = []
    original_elimination = la._jacobi_elimination

    def elimination(m):
        eliminated.append(la.freeze_mat(m))
        return original_elimination(m)

    monkeypatch.setattr(la, "_jacobi_elimination", elimination)
    for item in items:
        start = len(eliminated)
        sat, _, _ = result = workload.run(item)
        assert workload.check(item, result) is None
        assert eliminated[start:].count(sat.data.group.action.ambient.gram) == 1
    assert 3 * len(kernels) <= 2 * KERNEL_INT_CALLS_BEFORE
    assert dets == []
    assert hull_coords and not any(hull_coords)



def test_degenerate_round_builds_one_root_system_per_hull(monkeypatch, tmp_path):
    """tau_saturation keeps the root system of its last pass: one roots_of
    per primitive_hull it takes, none built again for the result."""
    from lattact import degeneration

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    calls = {"roots_of": 0, "primitive_hull": 0}
    for name in calls:
        original = getattr(degeneration, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(degeneration, name, counting)
    for item in workload.round(0):
        assert workload.check(item, workload.run(item)) is None
    assert calls["primitive_hull"] > 0
    assert calls["roots_of"] == calls["primitive_hull"]


def test_degenerate_round_saturation_checks_only_its_input(monkeypatch, tmp_path):
    """tau_saturation restricts each generator to the input system once,
    and maps no saturated root by a generator: the saturated system is
    invariant by construction."""
    from lattact import degeneration
    from lattact import linalg as la

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    restricts = count_calls(monkeypatch, la, "restrict_to_span")
    products = count_calls(monkeypatch, la, "mat_mul")
    images = count_calls(monkeypatch, la, "mat_vec")
    original = degeneration.tau_saturation
    saturations = []

    def saturation(a, f, r):
        start = len(restricts), len(products), len(images)
        s = original(a, f, r)
        saturations.append((a, r, s, restricts[start[0]:], products[start[1]:], images[start[2]:]))
        return s

    monkeypatch.setattr(degeneration, "tau_saturation", saturation)
    for item in workload.round(0):
        assert workload.check(item, workload.run(item)) is None
    assert saturations
    for a, r, s, restricted, multiplied, mapped in saturations:
        assert s.r_bar.roots
        assert restricted == [(g.matrix, r.basis) for _, g, _ in a.generators]
        for _, g, _ in a.generators:
            g_t = la.transpose(g.matrix)
            assert [rows for rows, m in multiplied if m == g_t] == [r.basis]
            assert not any(m == g.matrix and v in s.r_bar.roots for m, v in mapped)


def test_degenerate_factors_multiply_along_the_group_words(monkeypatch, tmp_path):
    """degenerate decomposes each generator once and multiplies the factors
    along the group table. The oracle decomposes every element on its own:
    its camera factor is the product of its generators' factors along its
    word, on rounds 0-2 of `degenerate` and at both walls of the Klein
    fixture."""
    import helpers
    from lattact import degenerate_at_wall, root_systems
    from lattact import linalg as la

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    calls = helpers.count_calls(monkeypatch, root_systems, "camera_decompose")
    results = [workload.run(item)[1] for k in range(3) for item in workload.round(k)]
    act, f, _, e = helpers.klein_pipeline(helpers.INV_A)
    results += [degenerate_at_wall(act, f, e, root) for root in ((1, 0, 1, -1), (1, -1, -1, 0))]
    # one decomposition per generator, of the isometry the action holds
    assert [g for _, _, g in calls] == [g for d in results for _, g, _ in d.system.data.group.action.generators]
    elements = 0
    for d in results:
        s = d.system
        group = s.data.group
        factors = [s_g.matrix for _, s_g, _ in d.factors]
        for m, word in zip(group.elements, group.words):
            product = la.identity(len(m))
            for j in word:
                product = la.mat_mul(product, factors[j])
            assert root_systems.camera_decompose(s.r_bar, s.camera, m)[0].matrix == product
        elements += len(group)
    assert (len(results), elements) == (23, 102)


def _full_rank_rho_items(monkeypatch, tmp_path, module, name):
    """Run round 0 of `degenerate`, recording the calls to module.name;
    return those calls and the fundamental data of each item whose rotation
    block rho fills the whole lattice (a trivial sign kernel)."""
    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    calls = count_calls(monkeypatch, module, name)
    full = []
    for item in workload.round(0):
        sat, _, _ = result = workload.run(item)
        assert workload.check(item, result) is None
        if sat.data.rho.rank == sat.data.rho.ambient.rank:
            full.append(sat.data)
    assert full
    return calls, full


def test_degenerate_round_restricts_no_element_to_an_identity_basis(monkeypatch, tmp_path):
    """Where the sign kernel is trivial its fixed part has the identity
    basis, and each group element is its own restriction to it."""
    from lattact import group_actions
    from lattact import linalg as la

    restricts, full = _full_rank_rho_items(monkeypatch, tmp_path, group_actions, "_restrict")
    assert [basis for _, basis in restricts if basis == la.identity(len(basis))] == []
    for data in full:
        assert data.rho_action == data.group.elements


def test_degenerate_round_sums_nothing_with_a_full_rank_rho(monkeypatch, tmp_path):
    """The leftover of a full-rank rho is 0 without a sum with the fixed
    lattice: a complement depends only on the rational span."""
    from lattact import lattice

    sums, full = _full_rank_rho_items(monkeypatch, tmp_path, lattice, "sublattice_sum")
    assert [args for args in sums if any(s.rank == args[0].rank for s in args[1:])] == []
    for data in full:
        assert data.leftover.basis == ()

def test_analyze_round_matches_the_benchmark_references(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Analyze(7, tmp_path)
    items = workload.round(0)
    snf, rref = _guard_eliminations(monkeypatch)
    assert len(items) == 5
    failures = []
    for item in items:
        problem = workload.check(item, workload.run(item))
        if problem is not None:
            failures.append((item["kind"], problem))
    assert failures == []
    assert snf == [] and rref == []


def test_analyze_round_eliminates_each_gram_once(monkeypatch, tmp_path):
    """Within one item of round 0 of `analyze` no Gram of rank above two is
    eliminated twice: the sign kernel's fixed lattice is the action's own
    fixed lattice object when the two are equal, so fundamental_data and
    the rotation branch read one elimination."""
    from lattact import linalg as la

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Analyze(7, tmp_path)
    items = workload.round(0)
    # the elimination overwrites its argument: record the Gram on entry
    eliminated = []
    original_elimination = la._jacobi_elimination

    def elimination(m):
        eliminated.append(la.freeze_mat(m))
        return original_elimination(m)

    monkeypatch.setattr(la, "_jacobi_elimination", elimination)
    repeats = []
    for item in items:
        start = len(eliminated)
        assert workload.check(item, workload.run(item)) is None
        grams = [g for g in eliminated[start:] if len(g) > 2]
        repeats += [(item["kind"], len(g)) for i, g in enumerate(grams) if g in grams[:i]]
    assert repeats == []


def test_basis_rows_are_replayed_only_for_positive_directions(monkeypatch, tmp_path):
    """The elimination carries no basis rows, and fundamental_data derives
    its flag on first read: round 0 of `analyze` and of `degenerate` makes
    no _jacobi_basis replay and no _positive_directions call. Reading ell
    on the round's fresh data replays once per _positive_directions call,
    a later read of plane replays nothing, and signature, det and
    enumerate_vectors on a fresh lattice never replay them."""
    from lattact import group_actions
    from lattact import linalg as la
    from lattact.lattice import Lattice, enumerate_vectors, signature

    from helpers import count_calls

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    replays = count_calls(monkeypatch, la, "_jacobi_basis")
    directions = count_calls(monkeypatch, group_actions, "_positive_directions")
    data = []
    for name in ("Analyze", "Degenerate"):
        workload = getattr(workloads, name)(7, tmp_path)
        for item in workload.round(0):
            result = workload.run(item)
            assert workload.check(item, result) is None
            data.append(result[1] if name == "Analyze" else result[0].data)
        assert replays == [] and directions == [], name
    for fd in data:
        fd.ell
        assert directions and len(replays) == len(directions)
        before = len(replays)
        fd.plane
        assert len(replays) == before
    replays.clear()
    e8 = Lattice(workloads.gen.spec_gram("E8"))
    assert signature(e8).as_tuple() == (0, 8, 0) and e8.det() == 1
    assert len(enumerate_vectors(e8, -2)) == 240
    assert replays == []


def _derived_once_guard(monkeypatch):
    """Record group closures and Dynkin diagram builds, and compare every
    object lattice._trusted makes with the one its public constructor
    makes from the same fields. A constructor may itself derive through
    _trusted (RootSystem's runs roots_of): what it makes is recorded, not
    compared again, so the comparison does not recurse."""
    from lattact import lattice, root_systems
    from lattact import linalg as la
    from lattact.errors import LattactError

    from helpers import count_calls

    closures = count_calls(monkeypatch, la, "group_closure")
    diagrams = count_calls(monkeypatch, root_systems, "_dynkin")
    trusted = lattice._trusted
    made, mismatches, comparing = [], [], []

    def checked(cls, *values):
        obj = trusted(cls, *values)
        made.append(cls.__name__)
        if comparing:
            return obj
        comparing.append(cls)
        try:
            public = cls(*values)
        except LattactError as err:
            public = err
        finally:
            comparing.pop()
        if public != obj:
            mismatches.append((cls.__name__, values, public))
        return obj

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "lattact" and getattr(module, "_trusted", None) is trusted:
            monkeypatch.setattr(module, "_trusted", checked)
    return closures, diagrams, made, mismatches


def test_analyze_round_derives_once(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Analyze(7, tmp_path)
    items = workload.round(0)
    closures, _, made, mismatches = _derived_once_guard(monkeypatch)
    for item in items:
        assert workload.check(item, workload.run(item)) is None
    assert len(closures) == len(items)
    assert {"Lattice", "Sublattice"} <= set(made)
    assert mismatches == []


def test_degenerate_round_derives_once(monkeypatch, tmp_path):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.Degenerate(7, tmp_path)
    items = workload.round(0)
    closures, diagrams, made, mismatches = _derived_once_guard(monkeypatch)
    actions = 0
    for item in items:
        sat, d, report = result = workload.run(item)
        assert workload.check(item, result) is None
        # verify_degeneration analyses the degenerate action when it differs
        actions += 1 + (d.action != sat.data.group.action)
    assert len(closures) == actions
    systems = made.count("RootSystem")
    assert systems and len(diagrams) <= systems
    assert {"Lattice", "Sublattice", "Isometry", "WeylWord", "RootSystem"} <= set(made)
    assert mismatches == []


def test_cli_stdout_matches_every_reference_file(monkeypatch, tmp_path, capsys):
    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    from lattact.cli import main

    cli = workloads.Cli(0, tmp_path)
    items = {item["ref"]: item for index in range(4) for item in cli.round(index) if "ref" in item}
    refs = sorted(path.stem for path in workloads.CLI_REF.glob("*.out"))
    assert len(refs) == 17 and sorted(items) == refs
    for name in refs:
        assert main(cli.argv(items[name])) == 0, name
        out = capsys.readouterr().out
        assert out.encode() == (workloads.CLI_REF / f"{name}.out").read_bytes(), name


# sha256 of the repr of every result of round 0 of `analyze`, `degenerate`
# and `enumerate` at seed 7, one line each, computed on the commit before
# mat_mul became a row-wise product: the same input gives the same bytes out
ROUND_REPR_SHA256 = "be18ee5540bf0bc12ead81eb6a899af85e5004087b263e1a78bdbe84f2a7dbc3"


def test_round_results_repr_hash_is_pinned(monkeypatch, tmp_path):
    import hashlib

    _load("gen", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    digest = hashlib.sha256()
    for name in ("Analyze", "Degenerate", "Enumerate"):
        workload = getattr(workloads, name)(7, tmp_path)
        for item in workload.round(0):
            digest.update(repr(workload.run(item)).encode() + b"\n")
    assert digest.hexdigest() == ROUND_REPR_SHA256


def test_round_digest_tool_reproduces_the_pinned_hash():
    """tools/round_digest.py hashes the same lines: at seed 7 over round 0
    alone it gives the pinned hash."""
    spec = importlib.util.spec_from_file_location("round_digest", BENCH.parent / "tools" / "round_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.digest(7, 1) == ROUND_REPR_SHA256


def _run_stdout(items_per_s, p50, failed=0, attempted=45):
    """The stdout of a perfbench/run.py run, cut down to what the pair
    summary reads: the context line and the final JSON line."""
    import json

    metrics = {"items_per_s": {"value": items_per_s, "unit": "1/s"},
               "latency_ms.p50": {"value": p50, "unit": "ms"}}
    return "\n".join([
        "workload analyze seed 7 seconds 20 trace 0",
        'context {"machine.calibration_ms": 41.0, "nproc": 2, "python": "3.11.7"}',
        f"items_per_s = {items_per_s} 1/s",
        json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}),
    ]) + "\n"


def _ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", BENCH.parent / "tools" / "ab_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_ab_pairs_summary_on_canned_runs(monkeypatch):
    """tools/ab_pairs.py's summary step reads canned run outputs and starts
    no process: medians and quartiles per side, the ratio of the medians,
    the change's wins (ties count for neither side), the parent's
    interquartile range and the bound check, per metric direction."""
    import subprocess

    tool = _ab_pairs()

    def no_process(*args, **kwargs):
        raise AssertionError("the summary step started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    runs = [((200, 5.0), (250, 4.0)), ((220, 4.0), (220, 4.4)), ((240, 6.0), (300, 3.0)), ((260, 4.5), (290, 3.5))]
    pairs = [{"parent": tool.parse_output(_run_stdout(*p)), "change": tool.parse_output(_run_stdout(*c, failed=k == 3))}
             for k, (p, c) in enumerate(runs)]
    assert pairs[0]["parent"]["context"]["nproc"] == 2
    end_to_end = [{"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
                  {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.1}]
    summary = tool.summarize(pairs, end_to_end)
    items = summary["items_per_s"]
    assert items["parent"] == [215.0, 230.0, 245.0] and items["change"] == [242.5, 270.0, 292.5]
    assert items["ratio"] == 270 / 230 and items["wins"] == 3 and items["parent_iqr"] == 30.0
    assert items["resolved"] and items["within_bound"]
    p50 = summary["latency_ms.p50"]
    assert p50["parent"][1] == 4.75 and p50["change"][1] == 3.75 and p50["wins"] == 3
    assert p50["parent_iqr"] == 5.25 - 4.375 and p50["resolved"] and p50["within_bound"]
    assert summary["failed"] == {"parent": [0, 180], "change": [1, 180]}
    # a change median past the bound, in either direction
    slow = [{"parent": pair["parent"], "change": tool.parse_output(_run_stdout(100, 9.0))} for pair in pairs]
    worse = tool.summarize(slow, end_to_end)
    assert not worse["items_per_s"]["within_bound"] and not worse["latency_ms.p50"]["within_bound"]
    assert worse["items_per_s"]["wins"] == 0
    lines = tool.table("analyze", summary, len(pairs))
    assert lines[0] == "analyze: 4 pairs; failed/attempted parent 0/180, change 1/180"
    assert len(lines) == 4 and lines[2].split()[0] == "items_per_s"


def test_ab_pairs_default_report_is_the_next_unused_bench_file(monkeypatch, tmp_path):
    """tools/ab_pairs.py writes to BENCH_<n>.json one past the largest n
    present, so a default run never overwrites an earlier report; only
    the directory is read, and no process starts."""
    import subprocess

    tool = _ab_pairs()

    def no_process(*args, **kwargs):
        raise AssertionError("naming the report started a process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    assert tool.next_bench_path(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    assert tool.next_bench_path(tmp_path) == tmp_path / "BENCH_2.json"
    for name in ("BENCH_3.json", "BENCH_x.json", "BENCH_9.txt", "OTHER_12.json"):
        (tmp_path / name).write_text("{}")
    # a gap is not filled: the reports stay in the order they were made
    assert tool.next_bench_path(tmp_path) == tmp_path / "BENCH_4.json"
    assert tool.next_bench_path(tool.ROOT).name not in {p.name for p in tool.ROOT.glob("BENCH_*.json")}


def _canned_runs(monkeypatch, runs, status=""):
    """Replace subprocess.run for tools/ab_pairs.py: git prints status and
    each benchmark run is recorded in runs and canned, the fourth failing."""
    import subprocess

    def canned(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout=status, stderr="")
        runs.append(cmd)
        if len(runs) == 4:  # the second run of pair 2, which the change opens
            return subprocess.CompletedProcess(cmd, 3, stdout="", stderr="Traceback\nboom\n")
        return subprocess.CompletedProcess(cmd, 0, stdout=_run_stdout(200, 5.0), stderr="")

    monkeypatch.setattr(subprocess, "run", canned)


def test_ab_pairs_keeps_the_pairs_before_a_failed_run(monkeypatch, tmp_path):
    """A run that exits non-zero stops tools/ab_pairs.py with status 1, and
    its report file holds every pair measured before that run and the
    failed run's side, command, exit status and stderr tail. Every run is
    canned: no process starts."""
    import json

    tool = _ab_pairs()
    runs = []
    _canned_runs(monkeypatch, runs)
    monkeypatch.setattr(tool, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(tool, "_commit", lambda rev: "1" * 40)
    out = tmp_path / "pairs.json"
    assert tool.main(["--parent", "p", "--workload", "analyze", "--pairs", "3", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["seconds"] == json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    (pair,) = report["workloads"]["analyze"]["pairs"]
    assert pair["seed"] == 7 and pair["parent"]["result"]["attempted"] == 45
    failed = report["failed_run"]
    assert failed["side"] == "parent" and failed["returncode"] == 3 and failed["stderr"] == "Traceback\nboom\n"
    assert failed["cmd"] == ["perfbench/run.py", "--workload", "analyze", "--seed", "8",
                             "--seconds", str(report["seconds"]), "--trace", "0"]
    assert [cmd[-1] for cmd in runs] == ["0"] * 4


@pytest.mark.parametrize("status, measured", [
    (" M README.md\n M CHANGES.md\n", False),
    (" M README.md\n M src/lattact/root_systems.py\n", True),
    ("R  tools/run.py -> perfbench/run.py\n", True),
    ("R  perfbench/notes.txt -> notes.txt\n", True),
    ("", False),
], ids=["docs-only", "src", "rename-into-perfbench", "rename-out-of-perfbench", "clean"])
def test_ab_pairs_flags_only_edits_a_run_executes(monkeypatch, tmp_path, status, measured):
    """change_uncommitted_edits is true only when a tracked file under src/
    or perfbench/ differs from HEAD, on either side of a rename; edited
    documentation alone leaves it false. Every run is canned."""
    import json

    tool = _ab_pairs()
    _canned_runs(monkeypatch, [], status)
    monkeypatch.setattr(tool, "export", lambda rev, dest: "0" * 40)
    monkeypatch.setattr(tool, "_commit", lambda rev: "1" * 40)
    out = tmp_path / "pairs.json"
    assert tool.main(["--parent", "p", "--workload", "analyze", "--pairs", "3", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["change_uncommitted_edits"] is measured
