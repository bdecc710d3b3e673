"""Division by a monic polynomial the plain way, for the tests.

``poly_divmod_reference`` is the coefficient-at-a-time schoolbook loop that
``intcore.poly_divmod`` replaced: it pops the leading remainder coefficient
into the quotient and subtracts that multiple of the divisor one slot at a
time.  Division by a monic polynomial is unique, so every path of
``intcore.poly_divmod`` must return exactly its lists; on ``PadicScalar``
coefficients it performs the same operations in the same order, so the
precisions must agree too.
"""

from padic_ladders.intcore import _reduced


def poly_divmod_reference(f, g, mod=None):
    d = len(g) - 1
    rem, quot = list(f), []
    while len(rem) > d:
        c = rem.pop()
        quot.append(c)
        if c:
            for t in range(d):
                rem[t - d] -= c * g[t]
    return _reduced(quot[::-1], mod), _reduced(rem, mod)
