"""Finite group actions on lattices with a holomorphy sign.

An action is a finite set of named isometries, each carrying a declared
sign kappa (+1 holomorphic, -1 antiholomorphic). The operations here
recover the rotation order of the kernel subgroup, the invariant flag it
needs on a lattice of positive index three, the rotation block and its
integral dilated complex structure, the eigenlattice split under an
antiholomorphic involution, and the geometricity test on the leftover
negative part. All arithmetic is exact.
"""

from functools import cached_property
from math import gcd

from . import linalg as la
from ._record import record
from .errors import InputError, ScopeError, VerificationError
from .lattice import (
    Isometry,
    Lattice,
    Sublattice,
    _isometry_error,
    _trusted,
    enumerate_vectors,
    orthogonal_complement,
    signature,
    standard_lattice,
    sublattice_sum,
)


# ---------------------------------------------------------------------------
# types

_ORDER_BOUND = 1024  # a closure past this many elements ends in ScopeError


@record
class LatticeAction:
    """Named generators with declared holomorphy signs on a common lattice.

    generators: tuple of (name, Isometry, kappa) with kappa in {+1, -1}.
    Raw matrices are accepted and wrapped; wrapping rejects non-isometries.
    """

    ambient: Lattice
    generators: tuple

    def __post_init__(self):
        if not isinstance(self.ambient, Lattice):
            raise InputError("an action acts on a Lattice")
        gens = []
        try:
            items = la.freeze_mat(self.generators)
        except TypeError:  # generators or an entry of them is a scalar
            items = None
        if items is None or any(len(item) != 3 for item in items):
            raise InputError("generator entries must be (name, isometry, sign)")
        for name, iso, kappa in items:
            sign = la.int_rows(((kappa,),))
            if sign is None or sign[0][0] not in (1, -1):
                raise InputError("holomorphy sign must be the integer +1 or -1")
            kappa = sign[0][0]
            if not isinstance(iso, Isometry):
                iso = Isometry(self.ambient, iso)
            elif iso.lattice.gram != self.ambient.gram:
                raise InputError("generator acts on a different lattice")
            name = str(name)
            if any(name == seen for seen, _, _ in gens):
                raise InputError(f"duplicate generator name {name!r}")
            gens.append((name, iso, kappa))
        object.__setattr__(self, "generators", tuple(gens))

    @cached_property
    def _group(self) -> "GroupElements":
        """The closed group (see enumerate_group), derived once per action."""
        gens = [iso.matrix for _, iso, _ in self.generators]
        signs = [k for _, _, k in self.generators]
        try:
            elements, table = la.group_closure(gens, self.ambient.rank, _ORDER_BOUND)
        except ValueError as err:
            raise ScopeError(str(err)) from None
        kappas = _along_table(table, 1, lambda k, j: k * signs[j], "declared signs are not a homomorphism")
        return GroupElements(self, elements, kappas, table)

    @cached_property
    def _fixed(self) -> Sublattice:
        """Primitive sublattice fixed pointwise by every generator."""
        mats = [iso.matrix for _, iso, _ in self.generators]
        return _trusted(Sublattice, self.ambient, la.fixed_kernel(mats, self.ambient.rank))


@record
class GroupElements:
    """Complete element list of a finite action, with signs.

    Ordering is breadth-first over generator words, ties within a word
    length broken by plain tuple comparison of the matrices, so the list
    is reproducible across runs. table[i][j] is the index of
    elements[i] . (matrix of generator j), the edges of the closure; its
    columns permute the indices, so orders and inverses are read off the
    table instead of from matrix products. Each element's first incoming
    edge comes from its breadth-first parent: signs, words and images of
    generator blocks are carried along those edges by _along_table.
    """

    action: LatticeAction
    elements: tuple
    kappas: tuple
    table: tuple

    @cached_property
    def _index(self) -> dict:
        return {m: i for i, m in enumerate(self.elements)}

    def __len__(self) -> int:
        return len(self.elements)

    def index_of(self, matrix) -> int:
        m = la.int_rows(matrix)
        if m not in self._index:
            raise InputError("matrix is not an element of the group")
        return self._index[m]

    def kappa_of(self, matrix) -> int:
        return self.kappas[self.index_of(matrix)]

    def kernel_matrices(self) -> tuple:
        return tuple(m for m, k in zip(self.elements, self.kappas) if k == 1)

    @cached_property
    def words(self) -> tuple:
        """Generator indices whose product is each element: its parent's
        word and the generator of the edge between them (_along_table)."""
        return _along_table(self.table, (), lambda word, j: word + (j,))

    def _powers(self, i) -> list:
        """Indices of x^0, ..., x^(o-1) for x = elements[i] of order o:
        right multiplication by x applies the table columns of its word."""
        if not la.is_bound(i) or i >= len(self):
            raise InputError("element index must be an integer below the group order")
        powers, t = [0], i
        while t:
            powers.append(t)
            for j in self.words[i]:
                t = self.table[t][j]
        return powers

    def order(self, i) -> int:
        """Multiplicative order of elements[i]."""
        return len(self._powers(i))

    def inverse(self, i) -> int:
        """Index of the inverse of elements[i]."""
        return self._powers(i)[-1]


@record
class FundamentalData:
    """Rotation order of the sign-kernel plus the invariant flag, with the
    group, fixed lattice and rotation block they were derived from.

    order_n: order of the rotation the kernel subgroup induces on its
    positive plane; the representation is real exactly when order_n <= 2.
    witness: ambient matrix whose rotation block realises that order (the
    identity when order_n is 1).
    ell: integer vector spanning the invariant positive line.
    plane: invariant primitive sublattice of positive index exactly two
    carrying the rotation (for order_n >= 2 this is rho itself; for
    order_n = 1 it is the saturated span of two positive eigenvectors).
    group: the closed group of the action; group.action is the action
    every consumer of this data must be called with.
    fixed: primitive sublattice fixed pointwise by the whole group.
    rho: integral rotation block, invariant under every group element: the
    saturated cyclotomic kernel of the witness for order_n >= 2, the
    kernel-fixed sublattice for order_n = 1.
    rho_action: integer matrix of each group element on rho (column
    action in rho's basis coordinates), index-aligned with group.elements.
    leftover: orthogonal complement of (fixed + rho), derived on first use.

    fundamental_data leaves ell and plane out: no consumer of the data
    reads them, so the first read of either derives both (__getattr__,
    which runs only for a name the instance lacks). A record built by hand
    takes all nine fields, and must equal what fundamental_data derives
    from its group's action.
    """

    order_n: int
    real: bool
    witness: tuple
    ell: tuple
    plane: Sublattice
    group: GroupElements
    fixed: Sublattice
    rho: Sublattice
    rho_action: tuple

    def __post_init__(self):
        action = getattr(self.group, "action", None)
        if not isinstance(action, LatticeAction) or fundamental_data(action) != self:
            raise InputError("fundamental data must be what fundamental_data derives from its group's action")

    def __getattr__(self, name):
        if name not in ("ell", "plane"):
            raise AttributeError(f"{type(self).__qualname__!r} object has no attribute {name!r}")
        ell, plane = _flag(self)
        vars(self).update(ell=ell, plane=plane)
        return vars(self)[name]

    @cached_property
    def leftover(self) -> Sublattice:
        l = self.group.action.ambient
        # a complement depends only on the rational span, which a full-rank
        # rho already fills: no sum with the fixed lattice is needed
        spanned = self.rho if self.rho.rank == l.rank else sublattice_sum(l, self.fixed, self.rho)
        return orthogonal_complement(l, spanned)


@record
class EigenData:
    """Eigenlattice split of the rotation block under a chosen reflector.

    m_plus / m_minus live inside the rotation block: their ambient is the
    block presented as a lattice, basis rows in block coordinates.
    exponent: annihilator of the quotient block / (m_plus + m_minus).
    reflector_block (not a field): the reflector's matrix on the block,
    whose _eigen_split a record built by hand must carry.
    """

    reflector_name: str
    reflector: Isometry
    rho: Sublattice
    m_plus: Sublattice
    m_minus: Sublattice
    exponent: int

    def __post_init__(self):
        iso, rho = self.reflector, self.rho
        ok = isinstance(iso, Isometry) and isinstance(rho, Sublattice) and rho.ambient == iso.lattice
        c = la.restrict_to_span(iso.matrix, rho.basis) if ok else None
        if c is None or la.mat_mul(c, c) != la.identity(rho.rank):
            raise InputError("the reflector must be an Isometry restricting to an involution of the block")
        if (self.m_plus, self.m_minus, self.exponent) != _eigen_split(c, rho):
            raise InputError("eigenparts and exponent must be the split of the reflector's block")
        object.__setattr__(self, "reflector_block", c)


@record
class DilatedComplexStructure:
    """Integer matrix J on the rotation block with J^2 = -multiplier; a
    record built by hand is checked for its shape only."""

    rho: Sublattice
    matrix: tuple
    multiplier: int

    def __post_init__(self):
        if not (isinstance(self.rho, Sublattice) and la.is_bound(self.multiplier)):
            raise InputError("a dilation takes a Sublattice and a nonnegative integer multiplier")
        object.__setattr__(self, "matrix", _as_int_square(self.matrix, self.rho.rank))


# ---------------------------------------------------------------------------
# small exact helpers


def _along_table(table, first, step, relation=None) -> tuple:
    """Each group element's value under a map given on the generators:
    first at the identity, step(value of x, j) at x . g_j.

    The value is set along each element's first incoming table edge, its
    breadth-first parent, which always comes from an earlier element, so
    one pass in index order sets every value before it is read. With a
    relation message, every other edge is checked against it, so a map
    that is not a homomorphism raises VerificationError(relation).
    """
    values = [first] + [None] * (len(table) - 1)
    for i, row in enumerate(table):
        for j, t in enumerate(row):
            if values[t] is None:
                values[t] = step(values[i], j)
            elif relation is not None and values[t] != step(values[i], j):
                raise VerificationError(relation)
    return tuple(values)


def _check_owner(action: LatticeAction, data: FundamentalData) -> None:
    if data.group.action != action:
        raise InputError("fundamental data belongs to a different action")


def _check_eigen_owner(data: FundamentalData, eigen: EigenData) -> None:
    """Refuse eigen data of another rotation block, or split by a reflector
    that is no antiholomorphic element of data's group."""
    i = data.group._index.get(eigen.reflector.matrix)
    if eigen.rho != data.rho or i is None or data.group.kappas[i] != -1:
        raise InputError("eigen data belongs to a different action")


def _restrict(matrix, basis_rows) -> tuple:
    """Integer restriction of an ambient matrix to an invariant row span."""
    r = la.restrict_to_span(matrix, basis_rows)
    if r is None:
        raise ScopeError("unsupported action shape: a required block is not invariant")
    return r


def _positive_directions(sub: Sublattice) -> list:
    """Pairwise orthogonal integer vectors of positive square spanning the
    positive part of the sublattice, in Jacobi pivot order."""
    columns = la.transpose(sub.basis)
    steps = sub.as_lattice()._jacobi
    out = []
    for (piv, prow, d, _), brow in zip(steps, la._jacobi_basis(steps)):
        if prow and prow[piv] * d > 0:
            # the diagonalizing row is brow / d, so its ambient vector is
            # (brow . basis) / d; clearing that of denominators divides
            # brow . basis by gcd(d, brow . basis), with the sign of d
            amb = la.mat_vec(columns, brow)
            g = gcd(d, *amb) if d > 0 else -gcd(d, *amb)
            out.append(tuple(x // g for x in amb))
    return out


# ---------------------------------------------------------------------------
# enumeration and fixed parts


def enumerate_group(action: LatticeAction) -> GroupElements:
    """All elements of the generated group with their holomorphy signs,
    closed once per action.

    The closure is la.group_closure over right multiplication by the
    generators; the declared signs are propagated multiplicatively along
    its table and checked on every generator edge, so a sign assignment
    that is not a homomorphism is always detected. Each generator is
    unimodular (Isometry checks it), so right multiplication by it is
    injective and its table column permutes the finite closed set: the
    set is closed under each generator's inverse too, so it is the
    generated group.
    """
    return action._group


def fixed_lattice(action: LatticeAction, subgroup: str = "all") -> Sublattice:
    """Primitive sublattice fixed pointwise, by the whole group or by the
    kernel of the holomorphy sign (subgroup = "all" or "kernel")."""
    if subgroup == "all":
        return action._fixed
    if subgroup != "kernel":
        raise InputError('subgroup must be "all" or "kernel"')
    kernel = action._group.kernel_matrices()
    n = action.ambient.rank
    # both are primitive and the group's fixed lattice lies in the kernel's,
    # so equal ranks mean equal lattices: hand out the object already held
    # (and whatever it has derived, its Gram elimination). The kernel is a
    # finite group, so its fixed rank is its average trace, and the stacked
    # kernel elements are eliminated only when the ranks differ.
    if la.fixed_rank(kernel, n) == action._fixed.rank:
        return action._fixed
    return _trusted(Sublattice, action.ambient, la.fixed_kernel(kernel, n))


# ---------------------------------------------------------------------------
# fundamental representation data


def _real_branch(action, group, fixed0) -> FundamentalData:
    l = action.ambient
    ident = la.identity(l.rank)
    fid = la.identity(fixed0.rank)
    if -1 not in group.kappas:
        # the kernel is the whole group, so fixed0 is action._fixed, of
        # positive index three: the flag needs no further check
        return _data(1, ident, group, action._fixed, fixed0, (fid,) * len(group))
    # fixed0, fixed by the sign kernel, is kept by the group (the whole
    # lattice where the kernel is trivial). The signs are a homomorphism
    # (LatticeAction._group checks every table edge), so a +1 element is
    # in the kernel and acts there as fid, and a -1 element is s k for the
    # first -1 generator s and k in the kernel, acting as s's block cf
    s = next(iso.matrix for _, iso, k in action.generators if k == -1)
    cf = s if fixed0.basis == ident else _restrict(s, fixed0.basis)
    rho_action = tuple(fid if k == 1 else cf for k in group.kappas)
    # The flag needs two positive directions in the plus part f_plus of
    # fixed0 under cf and one in the minus part f_minus. cf is an
    # involutive isometry of fixed0, so the Q-spans of f_plus and f_minus
    # are orthogonal and together make up fixed0: their positive indices
    # add up to fixed0's 3, and both needs hold exactly when f_plus has
    # positive index 2. A vector of fixed0 that cf fixes is fixed by every
    # element, and a vector every element fixes lies in fixed0: f_plus is
    # the whole group's fixed lattice, whose elimination is kept.
    if signature(action._fixed.as_lattice()).plus != 2:
        raise VerificationError("not almost geometric: no flag compatible with the declared signs")
    return _data(1, ident, group, action._fixed, fixed0, rho_action)


def _data(order_n, witness, group, fixed, rho, rho_action) -> FundamentalData:
    """FundamentalData without its flag, which _flag derives on first read."""
    data = object.__new__(FundamentalData)
    vars(data).update(order_n=order_n, real=order_n <= 2, witness=witness, group=group,
                      fixed=fixed, rho=rho, rho_action=rho_action)
    return data


def _flag(data: FundamentalData) -> tuple:
    """The invariant flag (ell, plane) of data that fundamental_data built,
    whose checks ensure that each direction read here exists.

    ell is a positive direction of the group's fixed lattice, so positive
    and invariant. For order >= 2 the plane is rho, orthogonal to ell as
    w - 1 is invertible on it for the witness w, which fixes ell. For
    order 1 it is the saturated span of two orthogonal positive vectors
    that every generator fixes or negates: another direction of the fixed
    lattice and a third one, or one of cf's -1 part where the sign kernel
    is proper (orthogonal to the fixed lattice because cf is an isometry).
    So the plane is invariant, of positive index two and orthogonal to ell.
    """
    plus = _positive_directions(data.fixed)
    if data.order_n >= 2:
        return plus[0], data.rho
    l = data.group.action.ambient
    if -1 in data.group.kappas:
        cf = data.rho_action[data.group.kappas.index(-1)]
        minus = _eigen_split(cf, data.rho)[1]
        v = _positive_directions(Sublattice(l, la.mat_mul(minus.basis, data.rho.basis)))[0]
    else:
        v = plus[2]
    return plus[0], _trusted(Sublattice, l, la.saturate_rows((plus[1], v)))


def _rotation_branch(action, group) -> FundamentalData:
    l = action.ambient
    best = None
    for i, (m, k) in enumerate(zip(group.elements, group.kappas)):
        if k != 1 or i == 0:
            continue
        o = group.order(i)
        for nn in (d for d in la.divisors_signed(o) if d > 1):
            if best is not None and nn <= best[0]:
                continue
            ker = la.kernel_int(la.poly_mat(la.cyclotomic(nn), m))
            if ker:
                sub = _trusted(Sublattice, l, ker)
                if signature(sub.as_lattice()).plus >= 2:
                    best = (nn, i, sub)
    if best is None:
        raise VerificationError("not almost geometric: no element carries a positive rotation plane")
    nn, w, rho = best
    # restricting each generator integrally is the block's invariance
    # check: a block every generator keeps, the group keeps
    blocks = [_restrict(iso.matrix, rho.basis) for _, iso, _ in action.generators]
    rho_action = _along_table(group.table, la.identity(rho.rank), lambda m, j: la.mat_mul(m, blocks[j]))
    # Phi_nn(c) = 0 on the cyclotomic kernel and Phi_nn is irreducible, so
    # c's order is exactly nn and its powers are nn distinct matrices
    c = rho_action[w]
    powers = [la.identity(len(c))]
    for _ in range(nn - 1):
        powers.append(la.mat_mul(powers[-1], c))
    kid, c_inv = powers[0], powers[-1]
    # being a power of c is no multiplicative condition: check each element
    if any(k == 1 and r not in powers for r, k in zip(rho_action, group.kappas)):
        raise ScopeError("unsupported action shape: kernel subgroup is not cyclic on the rotation block")
    # with the kernel on the powers of c, each -1 element is c^a s for any
    # -1 generator s, and c^a s reverses the orientation when s does (for
    # nn = 2, c = -I, so it is +-s): checking the -1 generators suffices
    for s, (_, _, k) in zip(blocks, action.generators):
        if k == 1:
            continue
        if nn >= 3:
            # s c s^-1 = c^-1, multiplied through by s
            reversed_ = la.mat_mul(s, c) == la.mat_mul(c_inv, s)
        else:
            reversed_ = la.mat_mul(s, s) == kid and all(
                signature(part.as_lattice()).plus == 1 for part in _eigen_split(s, rho)[:2])
        if not reversed_:
            raise VerificationError("declared signs disagree with the rotation orientation")
    # The line of the flag is a positive direction of the fixed lattice:
    # one exists exactly when its positive index is not 0. That also keeps
    # rho at positive index 2: for nn >= 3 it is twice a Hermitian signature,
    # even and in 2..3, and for nn = 2 rho (c = -I) is orthogonal to the
    # fixed lattice, whose index a rho of index 3 leaves at 0.
    if signature(action._fixed.as_lattice()).plus == 0:
        raise VerificationError("not almost geometric: no invariant positive direction")
    return _data(nn, group.elements[w], group, action._fixed, rho, rho_action)


def fundamental_data(action: LatticeAction) -> FundamentalData:
    """Rotation order and invariant flag of an action on a lattice of
    positive index three, or a refusal.

    The kernel of the sign either fixes a positive 3-space (order 1) or
    some kernel element rotates a positive plane with a primitive n-th
    root of unity; the kernel must act on that plane through powers of
    the witness, every -1 element must reverse its orientation, and a
    positive invariant direction must remain for the line of the flag.
    The group, fixed lattice and rotation block found on the way are
    returned with the data, so no consumer derives them again.
    """
    l = action.ambient
    if signature(l).plus != 3:
        raise ScopeError("ambient lattice must have positive index three")
    group = enumerate_group(action)
    fixed0 = fixed_lattice(action, "kernel")
    # The flag holds by construction (see _flag), so no flag check runs;
    # each branch checks by a signature count that the directions the flag
    # is built from exist, and the flag itself is derived on first read.
    # The witness's order is a multiple of nn, one of its divisors.
    if signature(fixed0.as_lattice()).plus == 3:
        return _real_branch(action, group, fixed0)
    return _rotation_branch(action, group)


# ---------------------------------------------------------------------------
# rotation block, dilation, eigenlattices


def rho_lattice(action: LatticeAction, data: FundamentalData) -> Sublattice:
    """Integral rotation block: the saturated cyclotomic kernel of the
    witness for order >= 2, the kernel-fixed sublattice for order 1.

    fundamental_data derives it and checks that every group element
    restricts to it integrally.
    """
    _check_owner(action, data)
    return data.rho


_T_FOR_ORDER = {3: -1, 4: 0, 6: 1}


def dilated_complex_structure(action: LatticeAction, data: FundamentalData) -> DilatedComplexStructure:
    """J = 2 c - t on the rotation block, integral with J^2 = -(4 - t^2).

    Defined for rotation orders 3, 4 and 6 (t = -1, 0, 1), the orders
    whose primitive roots of unity have degree two. fundamental_data has
    checked all J needs: the witness's block c is an isometry with
    c^2 - t c + 1 = 0, so J^2 = t^2 - 4 and J's adjoint is 2 c^-1 - t = -J;
    the sign kernel acts by powers of c, and s c s^-1 = c^-1 for each -1
    element s, so J commutes with the one and anticommutes with the other.
    """
    if data.order_n not in _T_FOR_ORDER:
        raise ScopeError("no integral dilation for this rotation order")
    _check_owner(action, data)
    c = data.rho_action[data.group.index_of(data.witness)]
    t = _T_FOR_ORDER[data.order_n]
    j = la.mat_sub(la.mat_scale(2, c), la.mat_scale(t, la.identity(len(c))))
    return _trusted(DilatedComplexStructure, data.rho, j, 4 - t * t)


def eigen_lattices(action: LatticeAction, data: FundamentalData) -> EigenData:
    """Split the rotation block under the first declared -1 generator.

    The reflector restricts to an involution of the block; the two
    eigenlattices are primitive there, orthogonal to each other, and of
    full combined rank. The exponent is the annihilator of the finite
    quotient block / (plus + minus); it clears the averaging projections
    (v +- cv)/2 into the eigenlattices.
    """
    chosen = next((j for j, (_, _, kap) in enumerate(action.generators) if kap == -1), None)
    if chosen is None:
        raise InputError("action has no antiholomorphic generator to split by")
    name, iso, _ = action.generators[chosen]
    _check_owner(action, data)
    # generator j is the element identity . g_j, index table[0][j]. Its
    # block c is an involution: fundamental_data checks it for orders 1, 2.
    # For n >= 3, c^2 = w^a for the witness's block w and c w c^-1 = w^-1,
    # so w^a = w^-a: c^2 = 1, or c^2 = w^(n/2) = -1. Then c anticommutes
    # with (w - w^-1) / sqrt(4 - t^2) where w + w^-1 = t, both orthogonal
    # complex structures: the block would be quaternionic, of a positive
    # index divisible by 4, not the 2 fundamental_data checks.
    c = data.rho_action[data.group.table[0][chosen]]
    eigen = _trusted(EigenData, name, iso, data.rho, *_eigen_split(c, data.rho))
    object.__setattr__(eigen, "reflector_block", c)
    return eigen


def _eigen_split(c, rho: Sublattice) -> tuple:
    """(plus, minus, exponent) of an isometric involution c of the block rho
    of rank k, in block coordinates: the library's one eigen split.

    x^2 - 1 is squarefree, so c diagonalizes over Q and the two kernels
    have ranks adding up to k; c is an isometry of the block, so
    u.v = cu.cv = -u.v for u in plus and v in minus. The exponent is the
    annihilator of block / (plus + minus): 2v = (v + cv) + (v - cv) with
    v +- cv in the saturated parts, so it is 1 when det (plus; minus) is
    +-1, that is when the projection (v + cv) / 2 is integral, every entry
    of c + I even, and 2 otherwise. It clears the averaging:
    exponent (v +- cv) / 2 lies in plus or minus.
    """
    kid = la.identity(rho.rank)
    block = rho.as_lattice()
    c_plus_i = la.mat_add(c, kid)
    plus = _trusted(Sublattice, block, la.kernel_int(la.mat_sub(c, kid)))
    minus = _trusted(Sublattice, block, la.kernel_int(c_plus_i))
    return plus, minus, 2 if any(x % 2 for row in c_plus_i for x in row) else 1


# ---------------------------------------------------------------------------
# geometricity and extension


def leftover_lattice(action: LatticeAction, data: FundamentalData) -> Sublattice:
    """Orthogonal complement of (fixed lattice + rotation block), derived
    once per fundamental data."""
    _check_owner(action, data)
    return data.leftover


def is_geometric(action: LatticeAction, data: FundamentalData) -> tuple:
    """Whether the leftover negative part carries no vector of square -2.

    The leftover part is the orthogonal complement of (fixed lattice +
    rotation block). It must be negative definite; the report lists its
    square -2 vectors up to sign, in ambient coordinates, so the action
    is geometric exactly when the report is empty.
    """
    _check_owner(action, data)
    leftover = data.leftover
    sig = signature(leftover.as_lattice())
    if sig.plus or sig.null:
        raise VerificationError("leftover part is not negative definite")
    roots = enumerate_vectors(leftover.as_lattice(), -2, up_to_sign=True)
    witnesses = la.mat_mul(roots, leftover.basis)
    return (not witnesses), witnesses


def extend_equivariantly(action: LatticeAction, data: FundamentalData, eigen: EigenData, m_plus_map):
    """Extend an isometry a of the plus eigenlattice to the rotation block
    as a on the plus part and J^-1 a J on the minus part, for the dilation
    J; returns the extension when it is integral on the block, None
    otherwise."""
    _check_eigen_owner(data, eigen)
    a = la.int_rows(m_plus_map.matrix if isinstance(m_plus_map, Isometry) else m_plus_map)
    plus = eigen.m_plus
    # a is None for a non-integer matrix, which _isometry_error refuses too
    if _isometry_error(plus.as_lattice(), a) is not None:
        raise InputError("map is not an integer isometry of the plus eigenlattice")
    # orders 1 and 2 have no dilation and end here in ScopeError
    dilation = dilated_complex_structure(action, data)
    j, mu, r = dilation.matrix, dilation.multiplier, eigen.reflector_block
    ident = la.identity(len(r))
    # 2 e = (e + r e) + (e - r e) splits e between the parts of the
    # reflector's block r. The reflector is a -1 element, so J anticommutes
    # with r and swaps the parts, and J^-1 = -J / mu: row i of doubled is
    # 2 mu ext(e_i) = mu a(e_i + r e_i) - J a J(e_i - r e_i). Both arguments
    # of a lie in the saturated plus part, so their plus coordinates exist.
    cols = la.transpose(la.mat_add(ident, r)) + la.transpose(la.mat_mul(j, la.mat_sub(ident, r)))
    images = la.mat_mul([la.coords_in_rows(v, plus.basis) for v in cols], la.mat_mul(la.transpose(a), plus.basis))
    doubled = la.mat_sub(la.mat_scale(mu, images[:len(r)]), la.mat_mul(images[len(r):], la.transpose(j)))
    if any(y % (2 * mu) for row in doubled for y in row):
        return None
    return Isometry(eigen.rho.as_lattice(), tuple(tuple(y // (2 * mu) for y in col) for col in zip(*doubled)))


# ---------------------------------------------------------------------------
# rank-4 wedge square and the conjugation obstruction


_WEDGE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

# hyperbolic reordering of the e_i ^ e_j basis: pairs (b1,b2), (b3,b4),
# (b5,b6) each span a U summand of the wedge pairing
_WEDGE_TO_U = (
    (1, 0, 0, 0, 0, 0),
    (0, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 0, 0),
)


def _wedge_matrix(phi) -> tuple:
    return tuple(
        tuple(phi[k][i] * phi[l][j] - phi[k][j] * phi[l][i] for i, j in _WEDGE_PAIRS)
        for k, l in _WEDGE_PAIRS
    )


def _as_int_square(phi, size: int) -> tuple:
    m = phi.matrix if isinstance(phi, Isometry) else la.int_rows(phi)
    if m is None:
        raise InputError("matrix must be integral")
    if len(m) != size or any(len(r) != size for r in m):
        raise InputError(f"matrix must be {size} x {size}")
    return m


def wedge_square(phi) -> Isometry:
    """Induced isometry of the rank-6 wedge pairing of a determinant +1
    integer 4 x 4 matrix, on a basis presenting the pairing as 3U.

    Multiplicative, and it identifies phi with -phi. The basis change
    _WEDGE_TO_U is a constant (the tests check that it presents the
    pairing as 3U), and the result is checked to be an isometry of 3U.
    """
    m = _as_int_square(phi, 4)
    if la.det(m) != 1:
        raise InputError("wedge square needs determinant +1")
    p = _WEDGE_TO_U
    w = la.mat_mul(la.mat_mul(la.transpose(p), _wedge_matrix(m)), p)  # p^-1 = p^T
    return Isometry(standard_lattice("3U"), w)


def conjugation_obstruction(phi) -> bool:
    """Whether a finite-order determinant +1 rank-4 matrix has eigenvalues
    {x, conj x, -x, -conj x} for a non-real x.

    Requires order above two and eigenvalue -1 of multiplicity at least
    two on the wedge square; under those constraints the answer reads
    off the characteristic polynomial: even, and nonzero at +-1.
    """
    m = _as_int_square(phi, 4)
    if la.det(m) != 1:
        raise InputError("conjugation obstruction needs determinant +1")
    try:
        order = len(la.group_closure([m], 4, 60)[0])
    except ValueError:
        raise ScopeError("matrix order exceeds the search bound") from None
    if order <= 2:
        raise InputError("conjugation obstruction needs order above two")
    w = _wedge_matrix(m)
    nullity = len(la.kernel_int(la.mat_add(w, la.identity(6))))
    if nullity < 2:
        raise InputError("wedge square needs eigenvalue -1 of multiplicity at least two")
    cp = la.char_poly(m)
    return cp[1] == cp[3] == 0 and la.poly_eval(cp, 1) != 0 and la.poly_eval(cp, -1) != 0
