"""The library's input boundary: every exported entry point, fed a malformed
value in any value-shaped argument (an int, a string, a vector, a matrix
or a sequence of those), ends in a result or a LattactError, never another
exception. The table is built from ``lattact.__all__``, as
``tests/test_records.py`` builds its table of record classes.

The derived records check their fields on construction, so they are
rows of the table too; and every record-typed argument of the stages
from saturation to walls, fed a record-shaped bad value (a field set to
None, a record of another action, two same-typed fields swapped), ends
in a result or a LattactError as well.

Out of scope: a non-lattact object where a Lattice, Sublattice,
RootSystem, action or data object belongs (duck typing stays), and
TypeErrors from a wrong argument count."""

from fractions import Fraction
from functools import cache
from itertools import combinations

import pytest

import helpers
import lattact
from lattact import LattactError
from lattact import linalg as la
from lattact._record import fields

BAD = (
    1.5,
    "a",
    None,
    True,
    (),
    (1.5, 2.0),
    ("a", "b"),
    [[1, 2], [3]],
    [[True, 0], [0, 1]],
    7,
    Fraction(1, 2),
    ((1.5, 0), (0, 1)),
    (("a",),),
)

# exported callables whose every argument is a lattact object (or none)
NO_VALUE_ARGS = {
    "ade_decompose",
    "camera_adjacent",
    "component_count",
    "degenerate",
    "dilated_complex_structure",
    "direct_sum",
    "discriminant_form",
    "eigen_lattices",
    "enumerate_group",
    "fundamental_camera",
    "fundamental_data",
    "is_geometric",
    "leftover_lattice",
    "orthogonal_complement",
    "primitive_hull",
    "rho_lattice",
    "roots_of",
    "signature",
    "sublattice_sum",
    "tau_saturation",
    "torus_symplectic_survey",
    "verify_degeneration",
}

EXPORTED = [name for name in lattact.__all__ if name != "__version__"]

# exported classes without a check of their own: the result records, which
# store what they are given, and the error classes, which take a message
UNCHECKED = [
    name for name in EXPORTED
    if isinstance(getattr(lattact, name), type) and "__post_init__" not in vars(getattr(lattact, name))
]


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in fields(type(record)))


@cache
def _pipeline(extra=None) -> dict:
    """Every record of the Klein action of helpers, by class name, with
    the saturated system and degeneration at the wall of its root
    (1, 0, 1, -1). extra="B" takes the other reflector on the same lattice
    and degenerates at the empty system; extra="A2" adds an A2 summand the
    action fixes, and degenerates at it."""
    act, f, j, e = helpers.klein_pipeline(helpers.INV_B if extra == "B" else helpers.INV_A)
    if extra == "A2":
        l = lattact.make_lattice(helpers.block_diag(act.ambient.gram, lattact.standard_lattice("A2").gram))
        act = lattact.LatticeAction(l, tuple((n, helpers.block_diag(g.matrix, la.identity(2)), k)
                                             for n, g, k in act.generators))
        f = lattact.fundamental_data(act)
        j, e = lattact.dilated_complex_structure(act, f), lattact.eigen_lattices(act, f)
    if extra is None:
        d = lattact.degenerate_at_wall(act, f, e, (1, 0, 1, -1))
    else:
        r = lattact.Sublattice(act.ambient, la.identity(act.ambient.rank)[6:])
        d = lattact.degenerate(act, lattact.tau_saturation(act, f, r))
    records = (act, f, j, e, d.system, d)
    return {type(record).__name__: record for record in records}


@cache
def _table() -> dict:
    """name -> (callable, valid arguments, positions of the value-shaped
    arguments). Methods that read a value are listed as Class.method."""
    a2 = lattact.standard_lattice("A2")
    r = lattact.roots_of(a2)
    c = lattact.fundamental_camera(r)
    act, f, j, e = helpers.klein_pipeline()
    s = lattact.Sublattice(a2, ((1, 0),))
    group = lattact.enumerate_group(act)
    i2, i4 = la.identity(2), la.identity(4)
    root = (1, 0, 1, -1)  # a root of the Klein rotation block
    table = {
        "Camera": (lattact.Camera, (r, c.walls, c.witness), (1, 2)),
        "Fixture": (lattact.Fixture, ("x", act, {}, {}), (0, 2, 3)),
        "Isometry": (lattact.Isometry, (a2, i2), (1,)),
        "Lattice": (lattact.Lattice, (a2.gram,), (0,)),
        "LatticeAction": (lattact.LatticeAction, (a2, (("g", i2, 1),)), (0, 1)),
        "Sublattice": (lattact.Sublattice, (a2, ((1, 0),), None), (1, 2)),
        "WeylWord": (lattact.WeylWord, (r, (), lattact.Isometry(a2, i2)), (1,)),
        "camera_decompose": (lattact.camera_decompose, (r, c, i2), (2,)),
        "candidate_roots": (lattact.candidate_roots, (e, None), (1,)),
        "classify_admissible_b_transitive": (lattact.classify_admissible_b_transitive, (1,), (0,)),
        "classify_order3_on_2U": (lattact.classify_order3_on_2U, (0,), (0,)),
        "conjugation_obstruction": (lattact.conjugation_obstruction, (i4,), (0,)),
        "d3_full_pipeline": (lattact.d3_full_pipeline, ("S",), (0,)),
        "degenerate_at_wall": (lattact.degenerate_at_wall, (act, f, e, root), (3,)),
        "enumerate_vectors": (lattact.enumerate_vectors, (a2, -2, False), (1, 2)),
        "extend_equivariantly": (lattact.extend_equivariantly, (act, f, e, i2), (3,)),
        "fixed_lattice": (lattact.fixed_lattice, (act, "all"), (1,)),
        "fixture": (lattact.fixture, ("e8_swap",), (0,)),
        "fold_reflection": (lattact.fold_reflection, (a2, (((0, 1), (1, 0)),), (1, 0)), (1, 2)),
        "is_admissible": (lattact.is_admissible, (r, (i2,)), (1,)),
        "is_isometry": (lattact.is_isometry, (a2, i2), (1,)),
        "make_lattice": (lattact.make_lattice, (a2.gram,), (0,)),
        "project_to_eigenspaces": (lattact.project_to_eigenspaces, (root, e), (0,)),
        "rank2_isomorphism_class": (lattact.rank2_isomorphism_class, (a2.gram,), (0,)),
        "reflection": (lattact.reflection, (a2, (1, 0)), (1,)),
        "segment_vectors": (lattact.segment_vectors, (lattact.standard_lattice("U"), (1, 0), (0, 1), -2), (1, 2, 3)),
        "standard_lattice": (lattact.standard_lattice, ("A2",), (0,)),
        "to_fundamental_chamber": (lattact.to_fundamental_chamber, (r, c, c.witness), (2,)),
        "wall_in_H_plus": (lattact.wall_in_H_plus, (root, e, j), (0,)),
        "wall_report": (lattact.wall_report, (e, j, None), (2,)),
        "wedge_square": (lattact.wedge_square, (i4,), (0,)),
        "GroupElements.index_of": (group.index_of, (la.identity(6),), (0,)),
        "GroupElements.inverse": (group.inverse, (1,), (0,)),
        "GroupElements.kappa_of": (group.kappa_of, (la.identity(6),), (0,)),
        "GroupElements.order": (group.order, (1,), (0,)),
        "Isometry.__call__": (lattact.Isometry(a2, i2), ((1, 0),), (0,)),
        "Lattice.dot": (a2.dot, ((1, 0), (0, 1)), (0, 1)),
        "Lattice.sq": (a2.sq, ((1, 0),), (0,)),
        "RootSystem.root_index": (r.root_index, (r.roots[0],), (0,)),
        "RootSystem.simple_coords": (r.simple_coords, (r.roots,), (0,)),
        "Sublattice.contains": (s.contains, ((1, 0),), (0,)),
        "Sublattice.to_ambient": (s.to_ambient, ((1,),), (0,)),
    }
    for name, record in (("RootSystem", r), *_pipeline().items()):
        if name not in table:
            n = len(fields(type(record)))
            table[name] = (type(record), _values(record), tuple(range(n)))
    for name in UNCHECKED:
        cls = getattr(lattact, name)
        n = len(fields(cls)) if "__match_args__" in vars(cls) else 1
        table[name] = (cls, (None,) * n, tuple(range(n)))
    return table


def test_every_exported_callable_is_in_the_table_or_takes_no_value():
    listed = {name for name in _table() if "." not in name}
    assert not listed & NO_VALUE_ARGS
    assert listed | NO_VALUE_ARGS == set(EXPORTED)


@pytest.mark.parametrize("name", sorted(_table()))
def test_a_malformed_value_ends_in_a_result_or_a_lattact_error(name):
    fn, args, slots = _table()[name]
    escaped = []
    for slot in slots:
        for bad in BAD:
            call = list(args)
            call[slot] = bad
            try:
                fn(*call)
            except LattactError:
                pass
            except Exception as err:  # noqa: BLE001 - the outcome under test
                escaped.append(f"argument {slot} = {bad!r}: {type(err).__name__}: {err}")
    assert not escaped, "\n".join(escaped)


def test_sublattice_reads_rational_vectors_and_integer_coordinates():
    s = lattact.Sublattice(lattact.standard_lattice("A2"), ((2, 0),))
    assert s.contains((Fraction(4), 0)) and not s.contains((Fraction(1, 2), 0))
    ambient = s.to_ambient((Fraction(3),))
    assert ambient == (6, 0) and all(type(x) is int for x in ambient)


def test_lattice_pairing_reads_rational_vectors_of_its_rank():
    a2 = lattact.standard_lattice("A2")
    for call in (lambda: a2.sq((0.5, 0)), lambda: a2.dot((1, 0, 0), (1, 0)), lambda: a2.sq(1.5)):
        with pytest.raises(lattact.InputError, match="rational vectors of the lattice rank"):
            call()
    assert a2.sq((Fraction(1, 2), 0)) == Fraction(-1, 2) and a2.dot([1, 0], (0, 1)) == 1


def test_sublattice_index_is_a_positive_int_or_none():
    a2 = lattact.standard_lattice("A2")
    for index in (1.5, True, 0):
        with pytest.raises(lattact.InputError):
            lattact.Sublattice(a2, ((1, 0),), index)
    assert lattact.Sublattice(a2, ((1, 0),), 2).index == 2


def test_weyl_word_indices_must_name_roots():
    a2 = lattact.standard_lattice("A2")
    r = lattact.roots_of(a2)
    ident = lattact.Isometry(a2, la.identity(2))
    for word in ((-1,), (len(r.roots),), (0.0,)):
        with pytest.raises(lattact.InputError):
            lattact.WeylWord(r, word, ident)
    s0 = lattact.reflection(a2, r.roots[0])
    assert lattact.WeylWord(r, [0], s0).word == (0,)


def test_camera_keeps_its_walls_and_witness_as_exact_tuples():
    r = lattact.roots_of(lattact.standard_lattice("A2"))
    c = lattact.fundamental_camera(r)
    listed = lattact.Camera(r, [list(w) for w in c.walls], list(c.witness))
    assert listed == c and hash(listed) == hash(c)


def test_group_index_reads_its_matrix_through_the_boundary():
    group = lattact.enumerate_group(helpers.klein_action())
    rows = [[Fraction(x) for x in row] for row in group.elements[1]]
    assert group.index_of(rows) == 1


def test_group_indices_root_vectors_and_isometry_arguments_are_read_through_the_boundary():
    group = lattact.fixture("d3_S").action._group
    assert len(group) == 6
    for i in (-1, True, None, 6, 1.5):
        for read in (group.order, group.inverse):
            with pytest.raises(lattact.InputError, match="^element index must be an integer below the group order$"):
                read(i)
    assert [group.order(group.inverse(i)) for i in range(6)] == [group.order(i) for i in range(6)]
    a2 = lattact.standard_lattice("A2")
    r = lattact.roots_of(a2)
    for v in (5, (1,), (1.0, 0)):
        with pytest.raises(lattact.InputError, match="^a root must be an integer vector of the lattice rank$"):
            r.root_index(v)
        with pytest.raises(lattact.InputError, match="^vectors must be integer vectors of the lattice rank$"):
            r.simple_coords([v])
    assert r.root_index([Fraction(x) for x in r.roots[1]]) == 1
    assert r.simple_coords([(Fraction(1), 0)]) == r.simple_coords([(1, 0)])
    iso = lattact.Isometry(a2, la.identity(2))
    for v in ((0.5, 0), 5, (1, 0, 0)):
        with pytest.raises(lattact.InputError, match="^vectors must be rational vectors of the lattice rank$"):
            iso(v)
    assert iso((Fraction(1, 2), 0)) == (Fraction(1, 2), 0)
    with pytest.raises(lattact.InputError, match="^cannot compose isometries of lattices of different ranks$"):
        iso.compose(lattact.Isometry(lattact.standard_lattice("3U"), la.identity(6)))


def _bad_records(record) -> list:
    """(label, thunk) pairs, each thunk making a record-shaped bad value
    for an argument that takes record: each field set to None, the record
    of the same class from two other actions, and the record with each
    pair of its same-typed fields swapped."""
    cls, values = type(record), _values(record)
    out = []
    for i in range(len(values)):
        out.append((f"field {i} None", lambda i=i: cls(*values[:i], None, *values[i + 1:])))
    for extra in ("B", "A2"):
        out.append((f"of the {extra} action", lambda extra=extra: _pipeline(extra)[cls.__name__]))
    for i, k in combinations(range(len(values)), 2):
        if type(values[i]) is type(values[k]) and values[i] != values[k]:
            swapped = list(values)
            swapped[i], swapped[k] = values[k], values[i]
            out.append((f"fields {i}, {k} swapped", lambda swapped=swapped: cls(*swapped)))
    return out


# the stages from saturation to walls, with their record-typed arguments
RECORD_TYPED = {
    "degenerate": ("LatticeAction", "SaturatedSystem"),
    "degenerate_at_wall": ("LatticeAction", "FundamentalData", "EigenData", "root"),
    "extend_equivariantly": ("LatticeAction", "FundamentalData", "EigenData", "plus_map"),
    "verify_degeneration": ("LatticeAction", "SaturatedSystem", "DegenerationResult"),
    "camera_adjacent": ("SaturatedSystem", "Sublattice"),
    "tau_saturation": ("LatticeAction", "FundamentalData", "Sublattice"),
    "is_geometric": ("LatticeAction", "FundamentalData"),
    "eigen_lattices": ("LatticeAction", "FundamentalData"),
    "wall_in_H_plus": ("root", "EigenData", "DilatedComplexStructure"),
    "wall_report": ("EigenData", "DilatedComplexStructure", None),
}


@pytest.mark.parametrize("name", sorted(RECORD_TYPED))
def test_a_bad_record_ends_in_a_result_or_a_lattact_error(name):
    records = dict(_pipeline())
    s = records["SaturatedSystem"]
    # the face of camera_adjacent, the input system of tau_saturation, the
    # wall root and the plus-part map are value arguments, fixed here
    records.update(Sublattice=s.r_bar.span if name == "camera_adjacent" else s.r_input, root=(1, 0, 1, -1),
                   plus_map=la.identity(2))
    records[None] = None
    fn = getattr(lattact, name)
    args = [records[kind] for kind in RECORD_TYPED[name]]
    escaped = []
    for slot, kind in enumerate(RECORD_TYPED[name]):
        if kind not in _pipeline():
            continue
        for label, make in _bad_records(records[kind]):
            call = list(args)
            try:
                call[slot] = make()
                fn(*call)
            except LattactError:
                pass
            except Exception as err:  # noqa: BLE001 - the outcome under test
                escaped.append(f"{kind} {label}: {type(err).__name__}: {err}")
    assert not escaped, "\n".join(escaped)


def test_eigen_data_or_a_dilation_of_another_block_is_refused():
    """Eigen data of another rotation block (the A2 action's) or split by
    a reflector outside the group (the B action's), and a dilation of
    another block, end in InputError rather than a result."""
    records = _pipeline()
    act, f, e = records["LatticeAction"], records["FundamentalData"], records["EigenData"]
    root = (1, 0, 1, -1)
    for extra in ("A2", "B"):
        other = _pipeline(extra)["EigenData"]
        with pytest.raises(lattact.InputError, match="^eigen data belongs to a different action$"):
            lattact.degenerate_at_wall(act, f, other, root)
        with pytest.raises(lattact.InputError, match="^eigen data belongs to a different action$"):
            lattact.extend_equivariantly(act, f, other, la.identity(2))
    a2 = lattact.standard_lattice("A2")
    j = lattact.DilatedComplexStructure(lattact.Sublattice(a2, la.identity(2)), ((-1, -2), (2, 1)), 3)
    for call in (lambda: lattact.wall_in_H_plus(root, e, j), lambda: lattact.wall_report(e, j)):
        with pytest.raises(lattact.InputError, match="^the dilation acts on another rotation block$"):
            call()
