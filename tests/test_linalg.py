import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import linalg_reference as reference
from linalg_reference import (Subspace, _integer_rows, complement_indices, contains_subspace,
                              identity, intersect, inverse, kernel, matmul, mul_vec, rank, rref,
                              solve_left, span_sum, stack_rows, subspace, transpose, zero)
from secantgeo import linalg
from secantgeo.genericity import fully_nonzero_vector, random_vector
from secantgeo.linalg import (Gaussian, IntegerSpan, Matrix, _combine, gauss,
                              integer_combination, integer_mul_vec, integer_values,
                              scalar_values, solve)
from secantgeo.oracles import _rank as oracle_rank
from secantgeo.scalars import ONE, ZERO, Rational, Scalar


def from_rows(rows) -> Matrix:
    return Matrix(len(rows), len(rows[0]), [[x if isinstance(x, Scalar) else Scalar(x) for x in r]
                                            for r in rows])


def rand_matrix(rng, rows, cols, bound=5):
    return Matrix(rows, cols, [[Scalar(rng.randint(-bound, bound)) for _ in range(cols)]
                               for _ in range(rows)])


def test_rank_basic():
    assert rank(identity(4)) == 4
    assert rank(zero(3, 5)) == 0
    m = from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == 2


def test_rank_row_operations_invariant():
    rng = random.Random(11)
    for _ in range(30):
        m = rand_matrix(rng, 4, 6)
        r = rank(m)
        # adding a multiple of one row to another preserves rank
        rows = [list(row) for row in m.data]
        c = Scalar(rng.randint(-3, 3))
        rows[1] = [x + c * y for x, y in zip(rows[1], rows[0])]
        assert rank(Matrix(4, 6, rows)) == r
        assert rank(transpose(m)) == r


def test_rref_canonical():
    m = from_rows([[0, 2, 4], [1, 1, 1]])
    pivots, red = rref(m)
    assert pivots == [0, 1]
    assert red[0][0] == ONE and red[0][1] == ZERO
    assert red[1][0] == ZERO and red[1][1] == ONE
    # rref of the basis rows reproduces themselves
    pivots2, red2 = rref(Matrix(2, 3, red))
    assert red2 == red


def test_subspace_equality_and_membership():
    u = Subspace.from_vectors(3, [[1, 0, 1], [0, 1, 1]])
    w = Subspace.from_vectors(3, [[1, 1, 2], [1, -1, 0]])
    assert u == w
    assert u.dim == 2
    assert u.contains([2, 3, 5])
    assert not u.contains([0, 0, 1])
    assert contains_subspace(u, Subspace.from_vectors(3, [[1, 1, 2]]))


def test_subspace_dimension_formula():
    rng = random.Random(12)
    for _ in range(25):
        amb = rng.randint(2, 7)
        u = Subspace.from_vectors(amb, [random_vector(amb, 3, rng) for _ in range(rng.randint(0, amb))])
        w = Subspace.from_vectors(amb, [random_vector(amb, 3, rng) for _ in range(rng.randint(0, amb))])
        s = span_sum([u, w])
        i = intersect([u, w])
        assert s.dim + i.dim == u.dim + w.dim
        assert contains_subspace(s, u) and contains_subspace(s, w)
        assert contains_subspace(u, i) and contains_subspace(w, i)


def test_reduce_is_canonical_coset():
    u = Subspace.from_vectors(4, [[1, 0, 2, 0], [0, 1, -1, 0]])
    v = [3, 5, 1, 7]
    red = u.reduce(v)
    # reduced vector differs from v by an element of u and kills pivots
    diff = [a - b for a, b in zip(v, red)]
    assert u.contains(diff)
    assert red[0] == ZERO and red[1] == ZERO
    # reduction is idempotent
    assert u.reduce(red) == red


def test_perp_and_kernel():
    rng = random.Random(13)
    for _ in range(20):
        amb = rng.randint(2, 6)
        u = Subspace.from_vectors(amb, [random_vector(amb, 4, rng) for _ in range(rng.randint(1, amb))])
        p = u.perp()
        assert u.dim + p.dim == amb
        assert p.perp() == u
        # every perp vector pairs to zero with every basis vector
        for b in u.basis:
            for q in p.basis:
                acc = ZERO
                for x, y in zip(b, q):
                    acc = acc + x * y
                assert acc == ZERO
    m = from_rows([[1, 2, 0], [0, 0, 1]])
    k = kernel(m)
    assert k.dim == 1
    assert not any(mul_vec(m, list(k.basis[0])))


def test_solve_left_and_inverse():
    rng = random.Random(14)
    for _ in range(20):
        n = rng.randint(1, 5)
        while True:
            a = rand_matrix(rng, n, n)
            if rank(a) == n:
                break
        x = rand_matrix(rng, rng.randint(1, 4), n)
        b = matmul(x, a)
        assert solve_left(a, b) == x
        ai = inverse(a)
        assert matmul(a, ai) == identity(n)
        assert matmul(ai, a) == identity(n)


def test_stack_rows_and_complement():
    a = from_rows([[1, 2]])
    b = from_rows([[3, 4], [5, 6]])
    st = stack_rows([a, b])
    assert st.rows == 3 and st.cols == 2
    assert st.data[2] == (Scalar(5), Scalar(6))
    u = Subspace.from_vectors(4, [[1, 0, 3, 0], [0, 1, 4, 0]])
    comp = complement_indices(u)
    assert comp == [2, 3]
    full = span_sum([u, Subspace.from_vectors(4, [[0, 0, 1, 0], [0, 0, 0, 1]])])
    assert full.dim == 4


def test_gaussian_entries_rank():
    # complex entries exercise the same elimination path
    m = from_rows([[Scalar(0, 1), Scalar(1)], [Scalar(-1), Scalar(0, 1)]])
    # second row = i * first row
    assert rank(m) == 1
    m2 = from_rows([[Scalar(0, 1), Scalar(1)], [Scalar(1), Scalar(0, 1)]])
    assert rank(m2) == 2


# -- the integer kernel against the Scalar reference ------------------------

PROPERTY = settings(max_examples=150, deadline=None, database=None)


def entries(real):
    """Zero often; otherwise p/q with a small denominator, and complex
    unless real."""
    part = st.builds(Rational, st.integers(-9, 9), st.integers(1, 6))
    nonzero = st.builds(Scalar, part) if real else st.builds(Scalar, part, part)
    return st.one_of(st.just(ZERO), nonzero)


@st.composite
def matrices(draw, rows=None, cols=None):
    """Small matrices over Q(i) with zero rows and columns, and rows that are
    combinations of earlier ones (rank-deficient stacks)."""
    real = draw(st.booleans())
    rows = rows or draw(st.integers(1, 5))
    cols = cols or draw(st.integers(1, 6))
    data = []
    for _ in range(rows):
        if data and draw(st.booleans()):
            coeffs = draw(st.lists(entries(real), min_size=len(data), max_size=len(data)))
            row = [ZERO] * cols
            for c, earlier in zip(coeffs, data):
                row = [x + c * y for x, y in zip(row, earlier)]
        else:
            row = draw(st.lists(entries(real), min_size=cols, max_size=cols))
        data.append(row)
    for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        for row in data:
            row[j] = ZERO
    return Matrix(rows, cols, data)


@st.composite
def invertible(draw, n):
    """A product of random elementary row operations on the n x n identity,
    over Q or Q(i)."""
    real = draw(st.booleans())
    rows = [list(r) for r in identity(n).data]
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        op = draw(st.sampled_from(["swap", "scale", "add"]))
        if op == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif op == "scale":
            c = draw(entries(real).filter(bool))
            rows[i] = [c * x for x in rows[i]]
        elif i != j:
            c = draw(entries(real))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return Matrix(n, n, rows)


@PROPERTY
@given(matrices())
def test_integer_elimination_matches_scalar_reference(m):
    assert rank(m) == reference.scalar_rank(m)
    assert rref(m) == reference.scalar_rref(m)


@PROPERTY
@given(matrices())
def test_kernel_and_perp_match_scalar_reference(m):
    want = reference.scalar_kernel(m)
    assert [list(r) for r in kernel(m).basis] == want
    assert [list(r) for r in Subspace.from_vectors(m.cols, m.data).perp().basis] == want


@PROPERTY
@given(matrices())
def test_rank_plus_kernel_dimension_is_cols(m):
    assert rank(m) + kernel(m).dim == m.cols


@PROPERTY
@given(st.data())
def test_rref_invariant_under_row_operations(data):
    m = data.draw(matrices())
    e = data.draw(invertible(m.rows))
    assert rref(matmul(e, m)) == rref(m)


@PROPERTY
@given(st.data())
def test_rank_of_product_bounded_by_factors(data):
    inner = data.draw(st.integers(1, 5))
    a = data.draw(matrices(cols=inner))
    b = data.draw(matrices(rows=inner))
    assert rank(matmul(a, b)) <= min(rank(a), rank(b))


@PROPERTY
@given(st.data())
def test_integer_spans_match_scalar_reference(data):
    """An IntegerSpan holds its canonical basis times the least integer that
    clears it, up to sign, over Z and over Z[i]; and it intersects,
    reduces and compares as the Scalar subspaces do."""
    m = data.draw(matrices())
    other = data.draw(matrices(cols=m.cols))
    span, other_span = (IntegerSpan(x.cols, _integer_rows(x.data)) for x in (m, other))
    basis = subspace(span).basis
    if basis:
        ints, den = integer_values([x for r in basis for x in r])
        if span.last == -den:
            ints, den = [-x for x in ints], -den
        assert [x for r in span.rows for x in r] == ints
        assert span.last == den

    def perp_rows(sub):
        return reference.scalar_kernel(Matrix(sub.dim, sub.ambient_dim, sub.basis))

    u, w = subspace(span), subspace(other_span)
    stacked = perp_rows(u) + perp_rows(w)
    want = reference.scalar_kernel(Matrix(len(stacked), m.cols, stacked))
    assert [list(r) for r in subspace(span.intersect(other_span)).basis] == want
    for row in other.data:
        assert span.contains(integer_values(row)[0]) == u.contains(row)
    assert (span == other_span) == (u == w)
    assert span == IntegerSpan(m.cols, _integer_rows(u.basis))


def test_inexact_bareiss_division_raises():
    with pytest.raises(ArithmeticError):
        _combine(3, [1, 2], 1, [1, 1], 2)  # (3*2 - 1*1) / 2
    assert _combine(3, [1, 2], 1, [1, 0], 2) == [1, 3]
    with pytest.raises(ArithmeticError):
        _combine(1, [1], 0, [0], Gaussian(1, 1))  # 1 / (1 + i)
    # 2 / (1 + i) = 1 - i
    assert _combine(2, [1], 0, [0], Gaussian(1, 1)) == [Gaussian(1, -1)]


def gaussian_integers(bound):
    """Gaussian integers with parts in [-bound, bound], real ones (plain ints)
    included."""
    part = st.integers(-bound, bound)
    return st.one_of(part, st.builds(gauss, part, part))


def quotient(x, y):
    """x / y by the Scalar route: the Gaussian integer, or None when y does not
    divide x."""
    q = Scalar(x.real, x.imag) / Scalar(y.real, y.imag)
    if q.re.denominator != 1 or q.im.denominator != 1:
        return None
    return gauss(q.re.numerator, q.im.numerator)


@PROPERTY
@given(gaussian_integers(30), gaussian_integers(30), st.booleans())
def test_gaussian_arithmetic_matches_scalar(x, y, multiple):
    """+, -, * and negation of Gaussian integers, mixed with ints, equal the
    Scalar results, and a result with imaginary part 0 is an int; with a
    Gaussian operand, x // y is the quotient when y divides x and raises
    ArithmeticError otherwise (on two ints it is floor division); == and
    hash agree."""
    def scalar(z):
        return Scalar(z.real, z.imag)

    def canonical(z):
        return type(z) is int or (type(z) is Gaussian and z.imag != 0)

    for got, want in ((x + y, scalar(x) + scalar(y)), (x - y, scalar(x) - scalar(y)),
                      (x * y, scalar(x) * scalar(y)), (-x, -scalar(x))):
        assert canonical(got) and scalar(got) == want
    if multiple:
        x = x * y
    if y and Gaussian in (type(x), type(y)):
        want = quotient(x, y)
        if want is None:
            with pytest.raises(ArithmeticError):
                x // y
        else:
            assert x // y == want and canonical(x // y)
    assert (x == y) == (scalar(x) == scalar(y))
    if x == y:
        assert hash(x) == hash(y)
    assert x == gauss(x.real, x.imag) and hash(x) == hash(gauss(x.real, x.imag))
    assert x.conjugate() == gauss(x.real, -x.imag)


@st.composite
def bareiss_steps(draw):
    """(lead, row, head, piv_row, prev) for `_combine`: prev an int of either
    sign or a Gaussian, the rows mixing ints and Gaussians, or ints only.
    Random, or built so that lead * row - head * piv_row has chosen
    remainders mod prev, in pairs r, -r that a check on the sum of the
    entries alone would let cancel."""
    real = draw(st.booleans())
    entry = st.integers(-60, 60) if real else gaussian_integers(60)
    prev = draw(st.integers(-12, 12).filter(lambda p: p not in (0, 1)) if real else
                gaussian_integers(6).filter(lambda p: p not in (0, 1)))
    size = draw(st.integers(1, 6))
    ints = st.lists(entry, min_size=size, max_size=size)
    head, piv_row = draw(st.integers(-9, 9) if real else gaussian_integers(9)), draw(ints)
    if draw(st.booleans()):
        lead = draw((st.integers(-9, 9) if real else gaussian_integers(9)).filter(bool))
        return lead, draw(ints), head, piv_row, prev
    bound = max(abs(prev.real), abs(prev.imag))
    rem = []
    while len(rem) < size:
        r = draw(st.integers(-bound + 1, bound - 1) if real else gaussian_integers(bound))
        rem += [r, -r] if draw(st.booleans()) else [r]
    out = [q * prev + r for q, r in zip(draw(ints), rem)]
    lead = draw(st.sampled_from([1, -1]))
    return lead, [lead * (x + head * y) for x, y in zip(out, piv_row)], head, piv_row, prev


@PROPERTY
@given(bareiss_steps())
def test_combine_raises_exactly_on_inexact_division(step):
    """One sum over the row checks every division by prev: _combine raises
    when some entry of lead * row - head * piv_row is not a multiple of
    prev, and returns the entrywise quotients otherwise, on int rows and on
    rows and pivots that mix ints and Gaussians."""
    lead, row, head, piv_row, prev = step
    out = [lead * x - head * y for x, y in zip(row, piv_row)]
    want = [quotient(x, prev) for x in out]
    if None in want:
        with pytest.raises(ArithmeticError):
            _combine(lead, row, head, piv_row, prev)
    else:
        assert _combine(lead, row, head, piv_row, prev) == want


def gaussian_rows(rows, cols):
    return st.lists(st.lists(gaussian_integers(9), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@PROPERTY
@given(st.data())
def test_mul_vec_matches_column_combination(data):
    """integer_mul_vec, one dot product per row, is the combination of the
    columns by vec, for rows and vec mixing ints and Gaussians, and [] for
    no rows."""
    k, cols = data.draw(st.integers(0, 4)), data.draw(st.integers(1, 5))
    rows = data.draw(gaussian_rows(k, cols))
    vec = data.draw(gaussian_rows(1, cols))[0]
    want = integer_combination(list(zip(vec, zip(*rows)))) if rows else []
    assert integer_mul_vec(rows, vec) == want


def _solved(a: Matrix, b: Matrix) -> Matrix:
    """a^-1 b by `solve`, each row of [a | b] cleared once, as Scalars."""
    aug = _integer_rows([list(r) + list(t) for r, t in zip(a.data, b.data)])
    x, last = solve([r[:a.cols] for r in aug], [r[a.cols:] for r in aug])
    return Matrix(a.rows, b.cols, [scalar_values(r, last) for r in x])


@PROPERTY
@given(st.data())
def test_solve_matches_solve_left_and_inverse(data):
    """On square matrices over Q and Q(i), full rank or not: solve(a, Id) is
    inverse(a), and solve(a^T, b^T) is solve_left(a, b)^T, the series' and
    the chart's call shapes; a singular a raises ValueError on both routes."""
    n = data.draw(st.integers(1, 4))
    a = data.draw(st.one_of(matrices(rows=n, cols=n), invertible(n)))
    b = data.draw(matrices(cols=n))
    if rank(a) < n:
        for ours, theirs in ((lambda: _solved(a, identity(n)), lambda: inverse(a)),
                             (lambda: _solved(transpose(a), transpose(b)),
                              lambda: solve_left(a, b))):
            with pytest.raises(ValueError):
                ours()
            with pytest.raises(ValueError):
                theirs()
        return
    assert _solved(a, identity(n)) == inverse(a)
    assert _solved(transpose(a), transpose(b)) == transpose(solve_left(a, b))


# -- the short-side kernels against the routes they replaced ----------------

def _random_span_rows(rng, a, gaussian):
    """Up to a rows of length a over Z or Z[i], small entries, zero often,
    with some rows combinations of earlier ones and some zero columns."""
    def entry():
        x = rng.randint(-3, 3) if rng.random() < 0.7 else 0
        return gauss(x, rng.randint(-2, 2)) if gaussian and x else x

    rows = []
    for _ in range(rng.randint(0, a)):
        if rows and rng.random() < 0.3:
            rows.append(integer_combination([(rng.randint(-2, 2), r) for r in rows]))
        else:
            rows.append([entry() for _ in range(a)])
    for j in rng.sample(range(a), rng.randint(0, min(2, a))):
        for r in rows:
            r[j] = 0
    return rows


def test_perp_matches_the_free_column_route():
    """perp from the smaller side gives the old route's canonical rows and
    last, up to one overall sign, on 3000 spans over Z and Z[i] with a <= 8,
    d = 0 and d = a among them."""
    rng = random.Random(18)
    signs, dims = {1: 0, -1: 0}, set()
    for trial in range(3000):
        a = rng.randint(1, 8)
        span = IntegerSpan(a, _random_span_rows(rng, a, trial % 2 == 1))
        got, want = span.perp(), reference.perp_by_free_columns(span)
        assert (got.ambient_dim, got.pivots) == (want.ambient_dim, want.pivots)
        sign = 1 if got.last == want.last else -1
        assert got.last == sign * want.last
        assert [[sign * x for x in r] for r in got.rows] == [list(r) for r in want.rows]
        signs[sign] += 1
        dims.add("zero" if span.dim == 0 else "full" if span.dim == a else
                 "small" if 2 * span.dim <= a else "large")
    assert dims == {"zero", "full", "small", "large"}
    assert signs[1] and signs[-1]


def test_intersect_matches_the_zassenhaus_route():
    """Reducing one span modulo the other gives the span Zassenhaus gave,
    on 3000 pairs over Z and Z[i] with a <= 8: zero spans, a full other
    span, spans inside the other (its rows plus more rows among them), a
    hyperplane as the other span, and the general case."""
    rng = random.Random(29)
    cases = set()
    for trial in range(3000):
        a, gaussian = rng.randint(1, 8), trial % 2 == 1
        rows = _random_span_rows(rng, a, gaussian)
        span = IntegerSpan(a, rows)
        more = _random_span_rows(rng, a, gaussian)
        other = IntegerSpan(a, rows + more if trial % 3 == 0 else more)
        assert span.intersect(other) == reference.intersect_by_zassenhaus(span, other)
        cases.add("zero" if span.dim == 0 else "full" if other.dim == a else
                  "contained" if all(map(other.contains, span.rows)) else
                  "hyperplane" if other.dim == a - 1 else "general")
    assert cases == {"zero", "full", "contained", "hyperplane", "general"}


def test_intersecting_hyperplanes_eliminates_no_row_wider_than_a(monkeypatch):
    """Two random hyperplanes of C^a meet in a codimension-2 span, and no
    elimination on the way sees a row longer than a: Zassenhaus would
    eliminate 2a - 2 rows of width 2a."""
    rng = random.Random(3)
    widths, eliminate = [], linalg.eliminate

    def recorded(rows, reduce=False):
        widths.extend(len(r) for r in rows)
        return eliminate(rows, reduce)

    for a in range(3, 11):
        u, w = (IntegerSpan(a, [random_vector(a, 9, rng)]).perp() for _ in range(2))
        want = reference.intersect_by_zassenhaus(u, w)
        monkeypatch.setattr(linalg, "eliminate", recorded)
        got = u.intersect(w)
        monkeypatch.setattr(linalg, "eliminate", eliminate)
        assert (u.dim, w.dim, got.dim) == (a - 1, a - 1, a - 2)
        assert got == want
        assert widths and max(widths) <= a
        widths.clear()


def test_draws_are_the_randint_draws():
    """random_vector and fully_nonzero_vector draw from getrandbits what
    randint(-b, b), and randint(1, b) with a randint(0, 1) sign, draw: the
    same values, and the same stream state after them."""
    for bound in range(1, 65):
        ours, theirs = random.Random(bound), random.Random(bound)
        assert random_vector(9, bound, ours) == [theirs.randint(-bound, bound) for _ in range(9)]
        assert ours.getstate() == theirs.getstate()
        want = []
        for _ in range(9):
            x = theirs.randint(1, bound)
            want.append(-x if theirs.randint(0, 1) else x)
        assert fully_nonzero_vector(9, bound, ours) == want
        assert ours.getstate() == theirs.getstate()
    for draw in (random_vector, fully_nonzero_vector):
        with pytest.raises(ValueError):
            draw(3, 0, random.Random(0))


@PROPERTY
@given(st.data())
def test_short_side_rank_matches_scalar_reference(data):
    """oracles._rank eliminates the transpose of a tall matrix; tall, wide
    and square matrices over Q(i) give the Scalar reference rank."""
    m = data.draw(matrices(rows=data.draw(st.integers(1, 7)), cols=data.draw(st.integers(1, 7))))
    assert oracle_rank(_integer_rows(m.data)) == reference.scalar_rank(m)


def test_short_side_rank_of_empty_rows():
    assert oracle_rank([]) == 0
    assert oracle_rank([[], [], []]) == 0
