"""Acceptance run: one check per shipped guarantee, A1 through A8.

Each test prints a single verdict line (run pytest with -s to see them
live; they also appear in captured output). Wall-clock budgets are part
of the guarantee and are asserted, so a slow pass is a fail.
"""

import functools
import itertools
import math
import random
import time
from fractions import Fraction

from toricsums.family import FamilyParams
from toricsums.ffield import Fp
from toricsums.frobenius import (
    compare_char_poly_with_lfunction,
    frobenius_series,
    horizontality_residual,
    splitting_bound,
    splitting_coefficients,
)
from toricsums.gkz import (
    companion_matrix,
    formal_solutions,
    relation_lattice,
)
from toricsums.hodge import (
    basis_set,
    hodge_polygon,
    ordinarity_report,
    slope_multiset_ab,
)
from toricsums.lfunction import exp_sum_series, l_polynomial, newton_polygon, predict_sum
from toricsums.ratfunc import Laurent
from toricsums.reduction import (
    class_add,
    class_scale,
    connection_matrix,
    reduce_to_basis,
    verify_certificate,
)

from reference import apply_operator_to_log_series

SEED = 20260819


def criterion(tag, budget):
    def deco(fn):
        @functools.wraps(fn)
        def run():
            start = time.perf_counter()
            try:
                detail = fn()
            except BaseException as exc:
                print(f"{tag}: FAIL ({type(exc).__name__}: {exc})")
                raise
            elapsed = time.perf_counter() - start
            ok = elapsed < budget
            line = f"{tag}: {'PASS' if ok else 'FAIL'} ({detail}; {elapsed:.2f}s, budget {budget:.0f}s)"
            print(line)
            assert ok, line
        return run
    return deco


def random_params(rng, top=9, force_cd_one=False):
    while True:
        a = rng.randint(1, top)
        b = rng.randint(1, top)
        c = 1 if force_cd_one else rng.randint(1, top)
        d = 1 if force_cd_one else rng.randint(1, top)
        if math.gcd(a, b) == math.gcd(a, c) == 1 and \
                math.gcd(b, c) == math.gcd(b, d) == 1:
            return FamilyParams(a, b, c, d)


@criterion("A1", 1.0)
def test_a1_basis_cardinality():
    rng = random.Random(SEED)
    for _ in range(50):
        params = random_params(rng)
        pts = basis_set(params)
        assert len(pts) == params.degree, params
        assert len(set(pts)) == len(pts), params
    return "50 random tuples with exponents <= 9: |basis| = ad+ab+bc"


@criterion("A2", 1.0)
def test_a2_hodge_slopes():
    flagship = {
        (1, 1, 1, 1): [0, 1, 2],
        (2, 1, 1, 1): [0, Fraction(1, 2), 1, Fraction(3, 2), 2],
        (1, 1, 2, 1): [0, 1, 1, 2],
    }
    for tup, want in flagship.items():
        got = hodge_polygon(FamilyParams(*tup)).slopes()
        assert list(got) == [Fraction(w) for w in want], tup
    rng = random.Random(SEED + 1)
    for _ in range(20):
        params = random_params(rng, force_cd_one=True)
        got = sorted(hodge_polygon(params).slopes())
        want = sorted(slope_multiset_ab(params.a, params.b))
        assert got == want, params
    return "3 pinned slope multisets and 20 random (a,b,1,1) closed-form checks"


def _end_to_end(params, p, lam, count, want_slopes):
    series = exp_sum_series(params, p, lam, count)
    lp = l_polynomial(series)
    assert lp.degree == params.degree
    assert len(lp.coeffs) == params.degree + 1
    assert predict_sum(lp, count) == series.sums[count - 1], (params, p, lam)
    np_ = newton_polygon(lp)
    hp = hodge_polygon(params)
    assert np_.vertices == hp.vertices, (params, p, lam)
    assert list(np_.slopes()) == [Fraction(s) for s in want_slopes]


@criterion("A3", 10.0)
def test_a3_small_ordinary_case():
    for lam in (1, 2):
        _end_to_end(FamilyParams(1, 1, 1, 1), 3, lam, 4, [0, 1, 2])
    return "(1,1,1,1) at p=3, both unit residues: integral degree-3 "\
        "polynomial predicts S_4, Newton polygon = Hodge polygon"


@criterion("A4", 120.0)
def test_a4_fractional_slope_cases():
    half = Fraction(1, 2)
    for lam in (1, 2):
        _end_to_end(FamilyParams(2, 1, 1, 1), 3, lam, 6,
                    [0, half, 1, 1 + half, 2])
        _end_to_end(FamilyParams(1, 1, 2, 1), 3, lam, 5, [0, 1, 1, 2])
    return "(2,1,1,1) and (1,1,2,1) at p=3, both residues: predicted "\
        "next sum matches enumeration, Newton polygon = Hodge polygon"


@criterion("A5", 30.0)
def test_a5_connection_equals_companion():
    for tup in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)):
        params = FamilyParams(*tup)
        assert connection_matrix(params) == companion_matrix(params), tup
    return "the operator's companion row solves the reduced derivative flag "\
        "exactly, and the flag is nonsingular, 3 families"


@criterion("A6", 600.0)
def test_a6_horizontality():
    fs = frobenius_series(FamilyParams(1, 1, 1, 1), 3, pi_digits=8, lam_order=12)
    assert fs.margin >= 4, fs.margin
    rep = horizontality_residual(fs, lam_checked=10)
    stated = rep.variants["stated"]
    assert stated is None or stated >= 4, stated
    shown = "exact" if stated is None else f"pi-ord {stated}"
    return f"residual of the transport identity is {shown} through "\
        f"10 deformation orders (need ord >= 4; certified margin {fs.margin})"


@criterion("A7", 600.0)
def test_a7_char_poly_matches_counting():
    rep = compare_char_poly_with_lfunction(FamilyParams(1, 1, 1, 1), 3, 1,
                                           pi_digits=8)
    assert rep.margin >= 4, rep.margin
    for v in rep.agreement:
        assert v is None or v >= 4, rep.agreement
    worst = rep.min_agreement
    shown = "exact" if worst is None else f"pi-ord {worst}"
    return f"det(1 - U T) at the fixed residue 1 matches the counted "\
        f"polynomial coefficientwise, worst agreement {shown} (need >= 4)"


def _random_class(rng, one, params):
    cls_ = {}
    for _ in range(rng.randint(1, 3)):
        u = (rng.randint(-4, params.a + 3), rng.randint(-4, params.b + 3))
        cls_ = class_add(cls_, {u: one * rng.randint(1, 9)})
    return cls_


def _rational():
    """(pi, L, 1) for Q[L, 1/L] with pi = 1."""
    return 1, Laurent({1: Fraction(1)}), Laurent({0: Fraction(1)})


def _prime(rng):
    """(pi, L, 1) for F_7 with L a random unit residue."""
    return 1, Fp(7, rng.randint(1, 6)), Fp(7, 1)


def _suite_certificates(rng):
    pool = [FamilyParams(*t) for t in
            ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1), (1, 1, 2, 3), (3, 2, 1, 1))]
    n = 0
    for ring_name in ("rational", "prime"):
        for _ in range(100):
            params = rng.choice(pool)
            pi, lam, one = _rational() if ring_name == "rational" else _prime(rng)
            cls_ = _random_class(rng, one, params)
            cert = reduce_to_basis(dict(cls_), params, pi, lam)
            assert set(cert.coords) == set(basis_set(params))
            assert verify_certificate(cls_, cert, params, pi, lam), (params, cls_)
            n += 1
        for _ in range(50):
            params = rng.choice(pool)
            pi, lam, one = _prime(rng) if ring_name == "rational" else _rational()
            x = _random_class(rng, one, params)
            y = _random_class(rng, one, params)
            s = rng.randint(2, 9)
            mix = class_add(class_scale(x, s), y)
            cx = reduce_to_basis(dict(x), params, pi, lam).coords
            cy = reduce_to_basis(dict(y), params, pi, lam).coords
            cmix = reduce_to_basis(mix, params, pi, lam).coords
            for v in basis_set(params):
                assert not cmix[v] - (cx[v] * s + cy[v]), (params, v)
            n += 1
    return n


def _all_params(top):
    return [FamilyParams(*t) for t in itertools.product(range(1, top + 1), repeat=4)
            if math.gcd(t[0], t[1]) == math.gcd(t[0], t[2]) == 1
            and math.gcd(t[1], t[2]) == math.gcd(t[1], t[3]) == 1]


def _suite_relation_lattice():
    # brute force: the relation (x, y, z) with a x = c z and b y = d z and
    # the least z > 0 generates the relation lattice, and z = ab works
    n = 0
    for params in _all_params(7):
        a, b, c, d = params.a, params.b, params.c, params.d
        z = next(z for z in range(1, a * b + 1) if (c * z) % a == 0 and (d * z) % b == 0)
        assert relation_lattice(params) == (c * z // a, d * z // b, z), params
        n += 1
    return n


def _suite_face_invariants():
    # d2 is the exponent of Z^2 / M Z^2: the least e with e * adj(M) = 0 mod det
    n = 0
    for params in _all_params(7):
        for face in ordinarity_report(params, 11).faces:
            (m00, m01), (m10, m11) = face.matrix
            adj = (m11, -m01, -m10, m00)
            e = next(e for e in itertools.count(1) if all(e * x % face.det == 0 for x in adj))
            d1, d2 = face.invariant_factors
            assert d2 == e and d1 * d2 == abs(face.det), (params, face.name)
            n += 1
    return n


def _suite_splitting_bound():
    n = 0
    for p in (3, 5):
        E = splitting_coefficients(p, 31)
        for i in range(31):
            v = E[i].ord_pi()
            assert v is None or v >= splitting_bound(p, i), (p, i, v)
            n += 1
    return n


def _suite_newton_dominates(rng):
    cases = [(FamilyParams(*t), 3, lam)
             for t in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1), (1, 1, 1, 2))
             for lam in (1, 2)]
    cases += [(FamilyParams(1, 1, 1, 1), 5, lam) for lam in (1, 2, 3, 4)]
    cases += [(FamilyParams(1, 1, 1, 1), 7, lam) for lam in (1, 2, 3)]
    points = 0
    for params, p, lam in cases:
        lp = l_polynomial(exp_sum_series(params, p, lam, params.degree))
        np_ = newton_polygon(lp)
        hp = hodge_polygon(params)
        for x in range(params.degree + 1):
            assert np_.value_at(x) >= hp.value_at(x), (params, p, lam, x)
            points += 1
    return len(cases), points


def _suite_formal_solutions():
    rows = 0
    for tup in ((1, 1, 1, 1), (2, 1, 1, 1), (1, 1, 2, 1)):
        params = FamilyParams(*tup)
        for sol in formal_solutions(params, 12):
            for defect in apply_operator_to_log_series(params, sol):
                assert all(c == 0 for c in defect), (tup, sol.initial_position)
                rows += 1
    return rows


@criterion("A8", 60.0)
def test_a8_property_suites():
    rng = random.Random(SEED + 8)
    n_cert = _suite_certificates(rng)
    n_face = _suite_face_invariants()
    n_lat = _suite_relation_lattice()
    n_split = _suite_splitting_bound()
    n_poly, n_pts = _suite_newton_dominates(rng)
    n_formal = _suite_formal_solutions()
    return (f"certificates {n_cert}, "
            f"face invariant factors {n_face}, lattice {n_lat}, "
            f"splitting bound {n_split} (exhaustive p=3,5, i<=30), "
            f"polygon domination {n_poly} polynomials/{n_pts} points, "
            f"series defects {n_formal} rows")
