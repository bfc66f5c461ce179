"""Arithmetic of simple semi-homogeneous bundles on abelian varieties and
the Jordan-Holder bookkeeping used to force stability.

The key count is the top self-intersection of the canonical polarization
on the graph variety: closed form (n+1) * d0^n. Its oracle expands the
2-form in an explicit exterior algebra; the raw coefficient of the volume
form carries the usual n! of a top wedge power relative to the
determinant, so the oracle divides it out (the Euler-characteristic
normalization, which is also what squares to the kernel order).
"""

from __future__ import annotations

from math import factorial, gcd, isqrt

from .lattice import AbelianSurfaceModel, _number_text, _reject, digit_limit


def _check_isogeny(deg_f: int, n: int, d0: int) -> None:
    """The common domain of both simplicity tests: the isogeny degree deg_f,
    the dimension n and the polarization part d0 are positive integers."""
    if not (isinstance(deg_f, int) and isinstance(n, int) and isinstance(d0, int)
            and deg_f > 0 and n > 0 and d0 > 0):
        _reject("deg_f, n and d0", deg_f, n, d0)


def power_or_text(coeff: int, base: int, n: int) -> int | str:
    """coeff * base^n when it is below 10^L, L the interpreter's int-to-string
    limit (its default where the limit is off, so the time stays bounded),
    else the text "coeff*base^n" ("base^n" for coeff 1), spelled in full.

    With b = base.bit_length(), base^n >= 2^((b-1)n) and 2^(4L) > 10^L, so
    (b-1)n >= 4L gives the text with no power built. Otherwise base^n is 1 or
    below 2^(bn) <= 2^(2(b-1)n) < 2^(8L), cheap to build. A product of at
    most 3L bits is below 2^(3L) < 10^L; only a longer one is compared with
    10^L exactly, so 10^L is built only then."""
    if not (isinstance(coeff, int) and isinstance(base, int) and isinstance(n, int)):
        _reject("coeff, base and n", coeff, base, n)
    for name, value, least in (("coeff", coeff, 1), ("base", base, 1), ("n", n, 0)):
        if value < least:
            raise ValueError(f"{name} must be an integer >= {least}")
    limit = digit_limit()
    if (base.bit_length() - 1) * n < 4 * limit:
        value = coeff * base**n
        if value.bit_length() <= 3 * limit or value < 10**limit:
            return value
    power = f"{_number_text(base)}^{_number_text(n)}"
    return power if coeff == 1 else f"{_number_text(coeff)}*{power}"


def is_simple_semihom(deg_f: int, n: int, d0: int) -> bool:
    """Simplicity criterion gcd(deg_f, (n+1) d0) = 1; the bundle then has
    rank deg_f^n."""
    _check_isogeny(deg_f, n, d0)
    return gcd(deg_f, (n + 1) * d0) == 1


def is_simple_via_kernel(deg_f: int, n: int, d0: int) -> bool:
    """Independent check: simplicity holds exactly when the rank deg_f^n is
    coprime to the order (n+1)^2 * d0^(2n) of the kernel of the polarization
    morphism. deg_f has the same prime factors as deg_f^n, so the order is
    taken modulo deg_f. A prime power dividing deg_f has an exponent below
    b = deg_f.bit_length(), so for n > b the factor d0^(2n) has the same gcd
    with deg_f as d0^(2b). The order is therefore taken as (n+1)^2 times
    d0^(2 min(n, b)), modulo deg_f: the same gcd with deg_f, and modular
    powers whose exponents stay small however many digits n has."""
    _check_isogeny(deg_f, n, d0)
    order = pow(n + 1, 2, deg_f) * pow(d0, 2 * min(n, deg_f.bit_length()), deg_f)
    return gcd(deg_f, order) == 1


def zeppola_integral(n: int, d0: int) -> int:
    """Top self-intersection count: (n+1) * d0^n."""
    if not (isinstance(n, int) and isinstance(d0, int) and n > 0 and d0 > 0):
        _reject("n and d0", n, d0)
    return (n + 1) * d0 ** n


def zeppola_oracle(n: int, d0: int) -> int:
    """Exterior-algebra oracle for zeppola_integral, for n <= 4.

    Generators x_1, y_1, ..., x_n, y_n with the per-factor orientation
    int x_i y_i = 1; the 2-form is d0 * sum_i x_i (y_1 + ... + 2 y_i + ...
    + y_n). Its n-th power is n! times the Gram determinant times the
    volume form, so the volume coefficient is divided by n!.

    A monomial is the int bitmask of its generators, in increasing order.
    Wedging a generator g on the right of a monomial moves it past every
    generator above g, so the sign is -1 to the number of bits above g.
    """
    if not (isinstance(n, int) and isinstance(d0, int)):
        _reject("n and d0", n, d0)
    if not 1 <= n <= 4:
        raise ValueError("the oracle is sized for 1 <= n <= 4")
    if d0 < 1:
        _reject("d0", d0)
    # x_i -> generator 2i, y_j -> generator 2j + 1
    form = [
        (2 * i, 2 * j + 1, d0 * (2 if i == j else 1)) for i in range(n) for j in range(n)
    ]
    acc: dict[int, int] = {0: 1}
    for _ in range(n):
        nxt: dict[int, int] = {}
        for mono, ca in acc.items():
            for g1, g2, cb in form:
                if (mono >> g1) & 1 or (mono >> g2) & 1:
                    continue
                m1 = mono | (1 << g1)
                above = (mono >> (g1 + 1)).bit_count() + (m1 >> (g2 + 1)).bit_count()
                m2 = m1 | (1 << g2)
                nxt[m2] = nxt.get(m2, 0) + (-ca * cb if above & 1 else ca * cb)
        acc = {k: v for k, v in nxt.items() if v}
    coeff = acc.get((1 << 2 * n) - 1, 0)
    quotient, remainder = divmod(coeff, factorial(n))
    if remainder:
        raise ArithmeticError("volume coefficient is not divisible by n!")
    return quotient


def jh_decompositions(r: int, a: int, e: int) -> tuple[tuple[int, int, int], ...]:
    """All numeric shapes (r0, b0, m) of a Jordan-Holder factor stack, a
    factor of rank r0 and slope data b0 coprime to r0 repeated m times, with
    m r0^2 = r g, m r0 b0 = a g for g = gcd(r0, e), by increasing r0. Only
    the divisors r0 of r can occur, and only they are tried."""
    if not (isinstance(r, int) and isinstance(a, int) and isinstance(e, int)
            and r > 0 and e > 0):
        _reject("r, a and e", r, a, e, positive=("r", "e"))
    shapes = []
    # m r0^2 = r g with g = gcd(r0, e) dividing r0: writing r0 = g j gives
    # r = m j r0, so r0 divides r; the divisors come in pairs {k, r // k}
    # with k <= sqrt(r), and the shapes are sorted at the end
    for k in range(1, isqrt(r) + 1):
        if r % k:
            continue
        for r0 in {k, r // k}:
            g = gcd(r0, e)
            num = r * g
            if num % (r0 * r0):
                continue
            m = num // (r0 * r0)
            if (a * g) % (m * r0):
                continue
            b0 = (a * g) // (m * r0)
            if gcd(r0, b0) != 1:
                continue
            shapes.append((r0, b0, m))
    return tuple(sorted(shapes))


def _check_slope_data(s0: int, c0: int, e: int) -> None:
    """The common domain of both stability tests: coprime (s0, c0) with
    s0 and e positive."""
    if not (isinstance(s0, int) and isinstance(c0, int) and isinstance(e, int)
            and s0 > 0 and e > 0):
        _reject("s0, c0 and e", s0, c0, e, positive=("s0", "e"))
    if gcd(s0, c0) != 1:
        raise ValueError("s0 and c0 must be coprime")


def forced_stable(s0: int, c0: int, e: int) -> bool:
    """Whether every semistable sheaf with the given coprime slope data
    (s0, c0) is automatically stable: true exactly when gcd(s0, e) = 1."""
    _check_slope_data(s0, c0, e)
    return gcd(s0, e) == 1


def forced_stable_via_jh(s0: int, c0: int, e: int) -> bool:
    """Independent check: stability is forced exactly when every shape in
    jh_decompositions(s0^2, s0 c0, e) has multiplicity 1."""
    _check_slope_data(s0, c0, e)
    return all(m == 1 for _, _, m in jh_decompositions(s0 * s0, s0 * c0, e))


def satollo_transfer(abar: int, d: int) -> tuple[AbelianSurfaceModel, tuple[int, int]]:
    """Transfer of the halved model (2 abar, d) to the saturated doubled
    model (4 abar, d); needs d odd. Returns the doubled model and the
    elementary divisors (1, 2 abar) of the transferred polarization."""
    if not (isinstance(abar, int) and isinstance(d, int) and abar > 0):
        _reject("abar and d", abar, d, positive=("abar",))
    if d < 1 or d % 2 == 0:
        raise ValueError("the transfer needs odd d")
    model = AbelianSurfaceModel(4 * abar, d)
    return (model, (1, 2 * abar))
