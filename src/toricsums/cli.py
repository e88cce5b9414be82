"""Command line interface.

Every command prints a single JSON document on stdout by default, with
sorted keys so output is byte-stable for a given invocation. The document
embeds the argv that produced it, so any result can be reproduced by
feeding that list back to the tool. Exit codes: 0 success, 2 rejected
input, 3 certified precision fell short of the request, 4 internal
consistency check failed.

The document is byte for byte what json.dumps(doc, sort_keys=True, indent=2)
prints: strings ASCII-escaped, integers in full however long. Its values are
only dicts with str keys, lists, str, int and bool; any other value is a
TypeError, so no float reaches a result. A known command builds only its own
argument parser; the full parser is built for anything else (no command, -h,
an unknown command, arguments the command does not take), so every usage,
help and error text is that of the full parser.

Rationals are rendered as "num/den" (plain integers when the denominator
is 1). Cyclotomic integers carry their coefficient vector on the basis
1, zeta, ..., zeta**(p-2). Scalars of the ramified p-adic ring carry exact
rational coordinates on 1, pi, ..., pi**(p-2) plus, when pi-integral, a
canonical digit expansion base pi.
"""

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii  # the C quoter json.dumps uses
from math import gcd

from . import __version__
from .errors import InvariantError, PreconditionError, StarvationError
from .family import FamilyParams
from .ffield import Fp
from .frobenius import (
    MAX_PIADIC_PRIME,
    PiAdic,
    compare_char_poly_with_lfunction,
    frobenius_series,
    horizontality_residual,
)
from .gkz import (
    euler_factors,
    exponent_matrix,
    formal_solutions,
    indicial_roots,
    leading_kappa,
    picard_fuchs_operator,
    relation_lattice,
)
from .hodge import hodge_polygon, ordinarity_report, weight_of, weight_profile
from .hodge import basis_set as hodge_basis_set
from .lfunction import count_l_polynomial, exp_sum_series, newton_polygon
from .ratfunc import Laurent
from .reduction import connection_matrix, reduce_to_basis, verify_certificate


def _ratio_str(n, d):
    """n/d for ints n and d > 0 as str renders Fraction(n, d), with one gcd."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def cyclo_json(x):
    return {"zeta_p": x.p, "coeffs": [int(c) for c in x.coeffs]}


def piadic_json(x, digit_count=None):
    v = x.ord_pi()
    out = {
        "pi_relation": f"pi^{x.p - 1} = -{x.p}",
        "rational_coords": [_ratio_str(n, x.den) for n in x.num],
        "ord_pi": "infinity" if v is None else v,
    }
    if digit_count is not None and (v is None or v >= 0):
        out["digits"] = x.digits(digit_count)
    return out


def poly_json(poly):
    """Coefficients on L^0..L^degree of a polynomial, "0" in the gaps."""
    terms = poly.terms
    return [str(terms.get(e, 0)) for e in range(poly.degree + 1)]


def ratfunc_json(s):
    """A Laurent value s over Fraction as the quotient num/den in lowest
    terms: den = L**k, num = s * L**k, with k = max(0, -lowest exponent).
    When k > 0, num has a nonzero constant term, so it is coprime to den.
    Zero has degree -1, so its num is empty."""
    terms = s.terms
    k = max(0, -min(terms, default=0))
    return {"num": [str(terms.get(e, 0)) for e in range(-k, s.degree + 1)],
            "den": ["0"] * k + ["1"]}


def polygon_json(poly):
    return {
        "vertices": [[str(x), str(y)] for x, y in poly.vertices],
        "slopes": [str(s) for s in poly.slopes()],
    }


# Work bound on every command: the degree N = ad + ab + bc is the size of the
# basis. From N near 32 to 128, connection time grows about as N**3.7 along
# (3,k,1,1) and N**2.4 along (1,1,k,k+1), and the exact nonsingularity solve
# takes most of it at the top. At the cap, (3,31,1,1) (N = 127) took 1.7 s
# and 35 MB, (1,1,63,64) (N = 128) 0.40 s; (9,10,1,1) (N = 109) took 0.71 s
# (2-core AMD EPYC KVM guest). The cap also matches the series Frobenius cap
# N**2 * (lam_order + 1) <= 2**14 at lam_order 0.
MAX_DEGREE = 128


def _family(args):
    parts = args.family.split(",")
    if len(parts) != 4:
        raise PreconditionError("--family wants four comma-separated integers a,b,c,d")
    try:
        a, b, c, d = (int(t) for t in parts)
    except ValueError as exc:
        raise PreconditionError(f"--family: {exc}") from None
    params = FamilyParams(a, b, c, d)
    if params.degree > MAX_DEGREE:
        raise PreconditionError(
            f"family {args.family} has degree {params.degree}, over the cap of {MAX_DEGREE}")
    return params


def _family_json(params):
    return {"a": params.a, "b": params.b, "c": params.c, "d": params.d,
            "degree": params.degree}


def cmd_basis(args):
    params = _family(args)
    pts = hodge_basis_set(params)
    return {
        "family": _family_json(params),
        "count": len(pts),
        "basis": [list(v) for v in pts],
    }


def cmd_hodge(args):
    params = _family(args)
    prof = weight_profile(params)
    poly = hodge_polygon(params)
    counts = sorted(prof.counts().items())
    return {
        "family": _family_json(params),
        "weight_denominator": prof.denominator,
        "weights": [str(w) for w in prof.weights],
        "weight_counts": [[str(w), n] for w, n in counts],
        "polygon": polygon_json(poly),
    }


def cmd_ordinary(args):
    params = _family(args)
    rep = ordinarity_report(params, args.prime)
    return {
        "family": _family_json(params),
        "prime": rep.p,
        "faces": [
            {
                "name": f.name,
                "matrix": [list(r) for r in f.matrix],
                "det": f.det,
                "invariant_factors": list(f.invariant_factors),
                "nondegenerate": f.nondegenerate,
                "ordinary_sufficient": f.ordinary_sufficient,
            }
            for f in rep.faces
        ],
        "nondegenerate": rep.nondegenerate,
        "congruence_modulus": rep.congruence_modulus,
        "gcd_ad": rep.gcd_ad,
        "guaranteed_ordinary": rep.guaranteed_ordinary,
    }


def cmd_sums(args):
    params = _family(args)
    series = exp_sum_series(params, args.prime, args.lam, args.count, atilde=args.atilde)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "atilde": args.atilde,
        "lam": args.lam,
        "sums": [{"k": k + 1, "value": cyclo_json(s)} for k, s in enumerate(series.sums)],
    }


def _lpoly_of(args, params):
    return count_l_polynomial(params, args.prime, args.lam, atilde=args.atilde)


def cmd_lpoly(args):
    params = _family(args)
    lp = _lpoly_of(args, params)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "atilde": args.atilde,
        "lam": args.lam,
        "degree": lp.degree,
        "coeffs": [cyclo_json(c) for c in lp.coeffs],
    }


def cmd_newton(args):
    params = _family(args)
    lp = _lpoly_of(args, params)
    poly = newton_polygon(lp)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "atilde": args.atilde,
        "lam": args.lam,
        "polygon": polygon_json(poly),
    }


def cmd_compare_polygons(args):
    params = _family(args)
    lp = _lpoly_of(args, params)
    np_ = newton_polygon(lp)
    hp = hodge_polygon(params)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "atilde": args.atilde,
        "lam": args.lam,
        "newton_slopes": [str(s) for s in np_.slopes()],
        "hodge_slopes": [str(s) for s in hp.slopes()],
        "newton_dominates_hodge": np_.dominates(hp),
        "equal": np_.vertices == hp.vertices,
    }


def _parse_monomials(args):
    terms = []
    for spec in args.monomial:
        body, _, coeff = spec.partition(":")
        parts = body.split(",")
        if len(parts) != 2:
            raise PreconditionError(f"--monomial wants m,n[:coeff], got {spec!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
            cval = int(coeff) if coeff else 1
        except ValueError as exc:
            raise PreconditionError(f"--monomial: {exc}") from None
        terms.append(((m, n), cval))
    return terms


# Work bound on reduce, on every ring: a monomial of polytope weight t is
# rewritten through the lattice points of t times the triangle, with
# coefficients that grow with t, so time grows about as t**2, and as t**3
# toward the vertex (-c, -d). The cap admits t <= 200: over Q(L), (1,1,1,2)
# x^(-50,50) (t = 200) takes 1.1 s and (1,1,3,2) x^(-600,-400), the slowest
# direction measured, 42 s and 67 MB (2-core Xeon KVM guest); (1,1,1,2)
# x^(-400,400) (t = 1600) would take 64 s and 1.8 GB.
MAX_REDUCE_WEIGHT = 200

# Digits printed per pi-adic coordinate by reduce --ring pilambda. Time and
# output grow linearly: for (1,1,1,1) x^(2,2) at p = 3, 0.09 s and 1 MB at
# the cap, 1.5 s and 19 MB at 1,280,000 digits (2-core Xeon KVM guest).
MAX_PI_DIGITS = 2 ** 16


def cmd_reduce(args):
    params = _family(args)
    if args.pi_digits < 0:
        raise PreconditionError("pi_digits must be non-negative")
    if args.pi_digits > MAX_PI_DIGITS:
        raise PreconditionError(
            f"pi_digits {args.pi_digits} is over the cap of {MAX_PI_DIGITS} = 2^16")
    if args.ring == "rational":
        pi, lam = 1, Laurent({1: Fraction(1)})
        show = ratfunc_json
    elif args.ring == "prime":
        if args.prime is None or args.lam is None:
            raise PreconditionError("--ring prime needs --prime and --lam")
        params.check_prime(args.prime)
        if args.lam % args.prime == 0:
            raise PreconditionError("deformation residue must be a unit")
        pi, lam = 1, Fp(args.prime, args.lam)

        def show(s):
            return int(s)
    else:
        if args.prime is None:
            raise PreconditionError("--ring pilambda needs --prime")
        params.check_prime(args.prime)
        if args.prime > MAX_PIADIC_PRIME:
            raise PreconditionError(f"prime {args.prime} is over the pilambda cap of "
                                    f"{MAX_PIADIC_PRIME} = 2^16")
        pi, lam = PiAdic.pi(args.prime), Laurent({1: PiAdic.one(args.prime)})

        def show(s):
            return {str(e): piadic_json(c, args.pi_digits) for e, c in sorted(s.terms.items())}
    one = lam / lam
    terms = _parse_monomials(args)
    weight, (m, n) = max((weight_of(params, u), u) for u, _ in terms)
    if weight > MAX_REDUCE_WEIGHT:
        raise PreconditionError(
            f"monomial {m},{n} has weight {weight}, over the cap of {MAX_REDUCE_WEIGHT}")
    cls_ = {}
    for u, cval in terms:
        cls_[u] = cls_[u] + one * cval if u in cls_ else one * cval
    cert = reduce_to_basis(dict(cls_), params, pi, lam)
    ok = verify_certificate(cls_, cert, params, pi, lam)
    if not ok:
        raise InvariantError("reduction certificate failed to verify")
    coords = {f"{v[0]},{v[1]}": show(s) for v, s in sorted(cert.coords.items())}
    return {
        "family": _family_json(params),
        "ring": args.ring,
        "steps": cert.steps,
        "verified": ok,
        "coordinates": coords,
        "cochain_support": {"d1": len(cert.h1), "d2": len(cert.h2)},
    }


def cmd_connection(args):
    params = _family(args)
    # the companion rows, checked against the reduced flag; a failed check exits 4
    rows = connection_matrix(params)
    return {
        "family": _family_json(params),
        "connection": [[ratfunc_json(e) for e in row] for row in rows],
        "companion": [[poly_json(e) for e in row] for row in rows],
        "equal": True,
    }


def cmd_gkz(args):
    params = _family(args)
    op = picard_fuchs_operator(params)
    return {
        "family": _family_json(params),
        "exponent_matrix": exponent_matrix(params),
        "relation_generator": list(relation_lattice(params)),
        "euler_factors": [str(f) for f in euler_factors(params)],
        "leading_constant": str(leading_kappa(params)),
        "theta_coefficients": [poly_json(c) for c in op.theta_coeffs],
        "indicial_roots": [str(r) for r in indicial_roots(params)],
    }


def cmd_ode_solve(args):
    params = _family(args)
    sols = formal_solutions(params, args.order)
    return {
        "family": _family_json(params),
        "order": args.order,
        "count": len(sols),
        "solutions": [
            {
                "exponent": str(s.rho),
                "initial_position": list(s.initial_position),
                "log_width": s.log_width,
                "table": [[str(c) for c in row] for row in s.table],
            }
            for s in sols
        ],
    }


def cmd_frobenius(args):
    params = _family(args)
    fs = frobenius_series(params, args.prime, pi_digits=args.pi_digits,
                          lam_order=args.lam_order, cutoff=args.cutoff)
    hres = horizontality_residual(fs)
    show = min(args.pi_digits, fs.margin)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "pi_digits_requested": args.pi_digits,
        "margin_certified": fs.margin,
        "cutoff": fs.cutoff,
        "nu0": fs.nu0,
        "lam_order": fs.lam_order,
        "basis": [list(v) for v in fs.basis],
        "matrix": [
            [[piadic_json(c, show) for c in entry] for entry in row]
            for row in fs.U
        ],
        "horizontality": {
            "lam_checked": fs.lam_order + 1,
            "variants": {k: ("zero" if v is None else v) for k, v in hres.items()},
        },
    }


def cmd_frobenius_check(args):
    params = _family(args)
    rep = compare_char_poly_with_lfunction(params, args.prime, args.lam,
                                           pi_digits=args.pi_digits)
    show = min(args.pi_digits, rep.margin)
    agree = ["exact" if v is None else v for v in rep.agreement]
    ok = all(v is None or v >= rep.margin for v in rep.agreement)
    return {
        "family": _family_json(params),
        "prime": args.prime,
        "lam": args.lam,
        "pi_digits_requested": args.pi_digits,
        "margin_certified": rep.margin,
        "char_poly": [piadic_json(c, show) for c in rep.det_coeffs],
        "l_polynomial": [cyclo_json(c) for c in rep.lpoly_coeffs],
        "l_polynomial_embedded": [piadic_json(c, show) for c in rep.embedded],
        "agreement_ord": agree,
        "agrees_to_margin": ok,
    }


def _render_table(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        keys = sorted(data, key=str)
        width = max((len(str(k)) for k in keys), default=0)
        for k in keys:
            v = data[k]
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_table(v, indent + 1))
            else:
                lines.append(f"{pad}{str(k).ljust(width)}  {v}")
    elif isinstance(data, list):
        if all(not isinstance(x, (dict, list)) for x in data):
            lines.append(pad + "  ".join(str(x) for x in data))
        else:
            for i, x in enumerate(data):
                lines.append(f"{pad}[{i}]")
                lines.extend(_render_table(x, indent + 1))
    else:
        lines.append(pad + str(data))
    return lines


_PRIME = ("--prime", {"type": int, "required": True})
_PI_DIGITS = ("--pi-digits", {"type": int, "default": 8})
_COUNTED = (
    _PRIME,
    ("--lam", {"type": int, "required": True,
               "help": "parameter residue (subfield element code for atilde > 1)"}),
    ("--atilde", {"type": int, "default": 1,
                  "help": "degree of the parameter field over the prime field"}),
)

# command -> (help line, options after --family and --format). The handler
# of a command is the module attribute cmd_<name with - as _>, looked up when
# its parser is built, so a wrapper put there after import is the one called.
COMMANDS = {
    "basis": ("monomial basis of the middle cohomology", ()),
    "hodge": ("weight profile and Hodge polygon", ()),
    "ordinary": ("facewise ordinarity criteria at a prime", (_PRIME,)),
    "sums": ("exponential sums S_1..S_count",
             _COUNTED + (("--count", {"type": int, "required": True}),)),
    "lpoly": ("inverse L-function from floor(N/2) + 1 sums", _COUNTED),
    "newton": ("q-adic Newton polygon of the L-polynomial", _COUNTED),
    "compare-polygons": ("Newton polygon against the Hodge lower bound", _COUNTED),
    "reduce": ("reduce a cohomology class to the basis", (
        ("--monomial", {"action": "append", "required": True, "metavar": "M,N[:COEFF]",
                        "help": "monomial exponents with optional integer coefficient; "
                                "repeatable"}),
        ("--ring", {"choices": ("rational", "prime", "pilambda"), "default": "rational"}),
        ("--prime", {"type": int}),
        ("--lam", {"type": int}),
        _PI_DIGITS)),
    "connection": ("deformation connection on the derivative flag", ()),
    "gkz": ("exponent lattice and the ordinary differential operator", ()),
    "ode-solve": ("formal log-series solutions at 0",
                  (("--order", {"type": int, "required": True}),)),
    "frobenius": ("Frobenius matrix as a certified series", (
        _PRIME, _PI_DIGITS, ("--lam-order", {"type": int}), ("--cutoff", {"type": int}))),
    "frobenius-check": ("characteristic polynomial at a Teichmueller point against counting",
                        (_PRIME, ("--lam", {"type": int, "required": True}), _PI_DIGITS)),
}


def _add_arguments(p, name):
    p.set_defaults(handler=globals()["cmd_" + name.replace("-", "_")])
    p.add_argument("--family", required=True, metavar="A,B,C,D",
                   help="exponents a,b,c,d of the family")
    p.add_argument("--format", choices=("json", "table"), default="json")
    for flag, kwargs in COMMANDS[name][1]:
        p.add_argument(flag, **kwargs)


def build_parser():
    """The full parser: every command as a subcommand."""
    top = argparse.ArgumentParser(
        prog="toricsums",
        description="Exact invariants of a two-parameter family of toric "
                    "exponential sums.")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (help_, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_), name)
    return top


def command_parser(name):
    """The parser of one command alone. It prints the same usage, help and
    errors as that command's subparser in build_parser."""
    p = argparse.ArgumentParser(prog=f"toricsums {name}")
    _add_arguments(p, name)
    p.set_defaults(command=name)
    return p


def dumps(x, pad=""):
    """The bytes of json.dumps(x, sort_keys=True, indent=2), for x nested at
    indentation pad, without the pure-Python encoder that indent selects.
    Values are only str-keyed dicts, lists, str, int and bool."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    inner = pad + "  "
    if isinstance(x, dict):
        if not x:
            return "{}"
        items = []
        for k in sorted(x):
            if not isinstance(k, str):
                raise TypeError(f"document keys are str, not {type(k).__name__}")
            items.append(f"{encode_basestring_ascii(k)}: {dumps(x[k], inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(x, list):
        if not x:
            return "[]"
        return ("[\n" + inner + (",\n" + inner).join([dumps(v, inner) for v in x])
                + "\n" + pad + "]")
    raise TypeError(f"{type(x).__name__} is not a document value")


def _emit_error(kind, exc):
    doc = {"error": {"kind": kind, "message": str(exc)}}
    extra = {}
    if isinstance(exc, StarvationError):
        extra = {"achieved": exc.achieved, "requested": exc.requested}
        doc["error"].update(extra)
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


_parsers = {}  # command name -> command_parser(name), built on first use


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = None
    if argv and argv[0] in COMMANDS:
        parser = _parsers.get(argv[0])
        if parser is None:
            parser = _parsers[argv[0]] = command_parser(argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if rest:  # the full parser words this error, with its own usage
            args = None
    if args is None:
        args = build_parser().parse_args(argv)
    # exact values of any size are printed; Python's default cap of 4300
    # digits on int-to-str conversion guards parsing of untrusted text
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        result = args.handler(args)
    except PreconditionError as exc:
        _emit_error("precondition", exc)
        return 2
    except StarvationError as exc:
        _emit_error("starvation", exc)
        return 3
    except InvariantError as exc:
        _emit_error("invariant", exc)
        return 4
    else:
        if args.format == "json":
            payload = {"job": {"tool": "toricsums", "version": __version__,
                               "command": args.command, "argv": argv},
                       "result": result}
            print(dumps(payload))
        else:
            print("\n".join(_render_table(result)))
        return 0
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
