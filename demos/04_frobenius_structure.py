"""
The Frobenius matrix, its horizontality, and spectral consistency
=================================================================

The deepest structure: a matrix U(L) over a ramified p-adic ring, on the
monomial basis of the cohomology, that transports the connection at L to
the connection at L^p.  Everything is computed to a certified pi-adic
precision; the report says how many digits survived the truncations, and
the code refuses to hand back fewer digits than it can certify.

Two independent checks close the loop:
  * horizontality: theta(U) - U G + p G(L^p) U = 0 to the margin;
  * specializing L to the Teichmueller lift of a residue and taking
    det(1 - U T) reproduces the L-polynomial obtained by counting
    points, coefficient by coefficient.
"""

from toricsums import (
    FamilyParams,
    compare_char_poly_with_lfunction,
    frobenius_series,
    horizontality_residual,
)

params = FamilyParams(1, 1, 1, 1)
p = 3

fs = frobenius_series(params, p, pi_digits=8, lam_order=9)
print(f"certified pi-adic margin: {fs.margin} (requested 8)")
print(f"series cutoff used: {fs.cutoff}, reduction reserve: {fs.nu0}")
print(f"basis: {fs.basis}")
print()
print("U(L) entry (0, 0), coefficients of L^0..L^3 as pi-digit strings:")
for e, c in enumerate(fs.U[0][0][:4]):
    print(f"    L^{e}: digits {c.digits(fs.margin)}")

print()
for name, ord_ in sorted(horizontality_residual(fs).items()):
    shown = "vanishes" if ord_ is None else f"pi-order {ord_}"
    print(f"transport residual, {name} shape: {shown}")
# only the stated shape should vanish to the margin; the two mangled
# shapes are kept as controls so a silent sign error cannot pass

print()
for lam in (1, 2):
    cmp_ = compare_char_poly_with_lfunction(params, p, lam, pi_digits=8)
    agree = ["exact" if v is None else v for v in cmp_.agreement]
    print(f"residue {lam}: det(1 - U T) vs counted polynomial, "
          f"coefficient agreement orders {agree} (margin {cmp_.margin})")
