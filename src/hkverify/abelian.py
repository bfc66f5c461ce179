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

from math import factorial, gcd, log10

from .lattice import AbelianSurfaceModel, digit_limit


class IsogenyParams:
    """deg_f: degree of the base isogeny factor; n: dimension parameter;
    d0: principal part of the polarization type."""

    __slots__ = ("deg_f", "n", "d0")

    def __init__(self, deg_f: int, n: int, d0: int) -> None:
        if not (isinstance(deg_f, int) and isinstance(n, int) and isinstance(d0, int)):
            raise TypeError("deg_f, n and d0 must be integers")
        if deg_f < 1:
            raise ValueError("deg_f must be a positive integer")
        if n < 1:
            raise ValueError("n must be a positive integer")
        if d0 < 1:
            raise ValueError("d0 must be a positive integer")
        self.deg_f = deg_f
        self.n = n
        self.d0 = d0


def kernel_order(params: IsogenyParams, modulus: int | None = None) -> int:
    """Order of the kernel of the polarization morphism:
    (n+1)^2 * d0^(2n), or its residue modulo `modulus` when one is given."""
    if modulus is None:
        return (params.n + 1) ** 2 * params.d0 ** (2 * params.n)
    return (params.n + 1) ** 2 % modulus * pow(params.d0, 2 * params.n, modulus) % modulus


def power_or_text(coeff: int, base: int, n: int) -> int | str:
    """coeff * base^n when its decimal form fits the interpreter's
    int-to-string limit, else the text "coeff*base^n" ("base^n" for coeff 1).

    The digit count log10(coeff) + n*log10(base) decides before any power is
    built; within a digit of the limit, where float rounding could mislead,
    the power is built and compared with 10^limit exactly. An unlimited
    interpreter (limit 0) gets the default limit, so the time stays bounded."""
    if not (isinstance(coeff, int) and isinstance(base, int) and isinstance(n, int)):
        raise TypeError("coeff, base and n must be integers")
    limit = digit_limit()
    digits = log10(coeff) + n * log10(base)
    text = f"{base}^{n}" if coeff == 1 else f"{coeff}*{base}^{n}"
    if digits > limit + 1:
        return text
    value = coeff * base**n
    return value if digits < limit - 1 or value < 10**limit else text


def is_simple_semihom(params: IsogenyParams) -> tuple[bool, int | str | None]:
    """Simplicity criterion gcd(deg_f, (n+1) d0) = 1, returning the rank
    deg_f^n when it holds (as `power_or_text` spells it). The equivalent
    kernel-order coprimality test gcd(deg_f^n, kernel_order) = 1 is
    recomputed modulo deg_f, which has the same prime factors as deg_f^n,
    and must agree."""
    f, n = params.deg_f, params.n
    simple = gcd(f, (n + 1) * params.d0) == 1
    via_kernel = gcd(f, kernel_order(params, f)) == 1
    if simple != via_kernel:
        raise ArithmeticError("the two simplicity criteria disagree")
    return (simple, power_or_text(1, f, n) if simple else None)


def zeppola_integral(n: int, d0: int) -> int:
    """Top self-intersection count: (n+1) * d0^n."""
    if not (isinstance(n, int) and isinstance(d0, int)):
        raise TypeError("n and d0 must be integers")
    if n < 1 or d0 < 1:
        raise ValueError("n and d0 must be positive integers")
    return (n + 1) * d0 ** n


def _wedge_insert(mono: tuple, g: int) -> tuple[tuple, int] | None:
    """Insert an odd generator into a sorted monomial, or None if repeated."""
    if g in mono:
        return None
    pos = 0
    while pos < len(mono) and mono[pos] < g:
        pos += 1
    sign = -1 if (len(mono) - pos) % 2 else 1
    return (mono[:pos] + (g,) + mono[pos:], sign)


def zeppola_oracle(n: int, d0: int) -> int:
    """Exterior-algebra oracle for zeppola_integral, for n <= 4.

    Generators x_1, y_1, ..., x_n, y_n with the per-factor orientation
    int x_i y_i = 1; the 2-form is d0 * sum_i x_i (y_1 + ... + 2 y_i + ...
    + y_n). Its n-th power is n! times the Gram determinant times the
    volume form, so the volume coefficient is divided by n!.
    """
    if not (isinstance(n, int) and isinstance(d0, int)):
        raise TypeError("n and d0 must be integers")
    if not 1 <= n <= 4:
        raise ValueError("the oracle is sized for 1 <= n <= 4")
    if d0 < 1:
        raise ValueError("d0 must be a positive integer")
    # x_i -> generator 2i, y_j -> generator 2j + 1
    form: dict[tuple[int, int], int] = {}
    for i in range(n):
        for j in range(n):
            form[(2 * i, 2 * j + 1)] = d0 * (2 if i == j else 1)
    acc: dict[tuple, int] = {(): 1}
    for _ in range(n):
        nxt: dict[tuple, int] = {}
        for mono, ca in acc.items():
            for (g1, g2), cb in form.items():
                step1 = _wedge_insert(mono, g1)
                if step1 is None:
                    continue
                m1, s1 = step1
                step2 = _wedge_insert(m1, g2)
                if step2 is None:
                    continue
                m2, s2 = step2
                nxt[m2] = nxt.get(m2, 0) + ca * cb * s1 * s2
        acc = {k: v for k, v in nxt.items() if v}
    volume = tuple(range(2 * n))
    coeff = acc.get(volume, 0)
    quotient, remainder = divmod(coeff, factorial(n))
    if remainder:
        raise ArithmeticError("volume coefficient is not divisible by n!")
    return quotient


def jh_decompositions(r: int, a: int, e: int) -> tuple[tuple[int, int, int], ...]:
    """All numeric shapes (r0, b0, m) of a Jordan-Holder factor stack, a
    factor of rank r0 and slope data b0 coprime to r0 repeated m times, with
    m r0^2 = r g, m r0 b0 = a g for g = gcd(r0, e)."""
    if not (isinstance(r, int) and isinstance(a, int) and isinstance(e, int)):
        raise TypeError("r, a and e must be integers")
    if r < 1 or e < 1:
        raise ValueError("r and e must be positive integers")
    shapes = []
    for r0 in range(1, r + 1):
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
    return tuple(shapes)


def forced_stable(s0: int, c0: int, e: int) -> bool:
    """Whether every semistable sheaf with the given coprime slope data
    (s0, c0) is automatically stable: true exactly when gcd(s0, e) = 1."""
    if gcd(s0, c0) != 1:
        raise ValueError("s0 and c0 must be coprime")
    if s0 < 1 or e < 1:
        raise ValueError("s0 and e must be positive integers")
    return gcd(s0, e) == 1


def forced_stable_via_jh(s0: int, c0: int, e: int) -> bool:
    """Independent check: stability is forced exactly when every shape in
    jh_decompositions(s0^2, s0 c0, e) has multiplicity 1."""
    if gcd(s0, c0) != 1:
        raise ValueError("s0 and c0 must be coprime")
    return all(m == 1 for _, _, m in jh_decompositions(s0 * s0, s0 * c0, e))


def satollo_transfer(abar: int, d: int) -> tuple[AbelianSurfaceModel, tuple[int, int]]:
    """Transfer of the halved model (2 abar, d) to the saturated doubled
    model (4 abar, d); needs d odd. Returns the doubled model and the
    elementary divisors (1, 2 abar) of the transferred polarization."""
    if abar < 1:
        raise ValueError("abar must be a positive integer")
    if d < 1 or d % 2 == 0:
        raise ValueError("the transfer needs odd d")
    model = AbelianSurfaceModel(4 * abar, d)
    return (model, (1, 2 * abar))
