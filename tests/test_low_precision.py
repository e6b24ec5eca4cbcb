"""Each enclosure routine rounds outward at every precision, not only at the
working one.

At 8 to 64 bits one misdirected rounding moves an end by a visible share of
its width, where at 169 bits it hides inside the slack of a finished
enclosure.  Each routine is called directly at seeded low precisions and its
ends must bracket the true value: an exact ``Fraction`` where the value is
rational, else mpmath at four times the bits.  Arb's test programs work in
the same spirit (Johansson, IEEE Trans. Computers 66(8), 2017).  Every other
argument is binary and exact at the lowest precision, so that no outward
rounding of the argument hides a misdirected rounding of the routine.
"""

import random
from fractions import Fraction as F

from mpmath import mp

from ellipcert import Enclosure, bounds, engine
from ellipcert._dyadic import Dyadic


def _mpf(v):
    """v as an mpf, exactly: v is a Dyadic or a Fraction over a power of two."""
    return mp.make_mpf(Dyadic(v)._mpf_)


def _ratio(q: F):
    """q rounded to nearest at the context's precision."""
    return mp.mpf(q.numerator) / q.denominator


def _brackets(lo, hi, ref) -> bool:
    return _mpf(lo) <= ref <= _mpf(hi)


def test_kernel_encloses_A_at_low_precision():
    rng = random.Random(3001)
    for i in range(200):
        prec = rng.randrange(8, 65)
        x = F(rng.randrange(0, 257), 256) if i % 2 else F(rng.randrange(1, 10**6), 10**6)
        enc = engine._kernel_enclosure(x, prec)
        with mp.workprec(4 * prec):
            xm = _ratio(x)
            assert _brackets(enc.lo, enc.hi, 1 + 3 * xm / (10 + mp.sqrt(4 - 3 * xm))), (x, prec)


def test_lambda_encloses_its_map_at_low_precision():
    rng = random.Random(3002)
    for i in range(200):
        prec = rng.randrange(8, 65)
        if i % 2:
            # e = 2mn/(m^2 + n^2) has sqrt(1 - e^2) = (m^2 - n^2)/(m^2 + n^2),
            # so lam = (n/m)^2 exactly
            m = rng.randrange(2, 200)
            n = rng.randrange(1, m)
            enc = engine._lambda_enclosure(F(2 * m * n, m * m + n * n), prec)
            assert enc.lo <= F(n, m) ** 2 <= enc.hi, (m, n, prec)
        else:
            e = F(rng.randrange(0, 256), 256)
            enc = engine._lambda_enclosure(e, prec)
            with mp.workprec(4 * prec):
                em = _ratio(e)
                lam = em**2 / (1 + mp.sqrt((1 - em) * (1 + em))) ** 2
                assert _brackets(enc.lo, enc.hi, lam), (e, prec)


def test_product_encloses_the_exact_product_at_low_precision():
    rng = random.Random(3003)
    for i in range(200):
        prec = rng.randrange(8, 65)
        # ends of either sign with 64-bit mantissas, the width a share of
        # their size, so that the products round at these precisions
        lo = F(rng.randrange(-2**64, 2**64), 2**64)
        hi = lo + F(rng.randrange(1, 2**64), 2**64)
        q = F(rng.randrange(1, 2**8), 2**rng.randrange(0, 8)) if i % 4 < 2 else F(
            rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        times_pi = i % 2 == 1
        enc = engine._product(Enclosure(Dyadic(lo), Dyadic(hi)), q, times_pi, prec)
        if not times_pi:
            assert enc.lo <= lo * q and hi * q <= enc.hi, (lo, hi, q, prec)
            continue
        with mp.workprec(4 * prec):
            assert _mpf(enc.lo) <= _ratio(lo * q) * mp.pi, (lo, q, prec)
            assert _ratio(hi * q) * mp.pi <= _mpf(enc.hi), (hi, q, prec)


def test_agm_perimeter_encloses_the_elliptic_integral_at_low_precision():
    # p = 4a E(1 - (b/a)^2); b/a is kept at 1/8 or more, where mpmath's
    # ellipe needs no extra digits for its modulus
    rng = random.Random(3004)
    for i in range(60):
        prec = rng.randrange(8, 65)
        a = F(rng.randrange(128, 256), 128)
        b = a * F(rng.randrange(32, 257), 256)
        if i % 2:
            a, b = a * F(10, 9), b * F(10, 9)
        lo, hi = engine._agm_perimeter(a, b, prec)
        with mp.workprec(4 * prec):
            am = _ratio(a)
            p = 4 * am * mp.ellipe(1 - (_ratio(b) / am) ** 2)
            assert _brackets(Dyadic.from_raw(lo), Dyadic.from_raw(hi), p), (a, b, prec)


def test_agm_perimeter_rounds_its_first_step_and_last_quotient_outward(monkeypatch):
    # the AGM sum's own roundings leave each end several ulps of slack, which
    # hides a misdirected rounding around it.  With _agm_sum replaced by
    # exact S and M, the ends must bracket 2 pi S / M, and the four
    # step-one pairs it is handed must bracket their exact values.  The
    # axes are exact of any width, and b <= a/2, so that a - b rounds
    rng = random.Random(3006)
    for _ in range(100):
        prec = rng.randrange(8, 65)
        a = F(rng.randrange(2**63, 2**64), 2**63)
        b = a * F(rng.randrange(2**61, 2**63), 2**64)
        s, m = (F(rng.randrange(2**63, 2**64), 2**63) for _ in range(2))
        handed = []

        def exact_sum(*pairs):  # called at once, in this iteration
            handed.extend(pairs[:4])
            return (Dyadic(s)._mpf_,) * 2, (Dyadic(m)._mpf_,) * 2
        monkeypatch.setattr(engine, "_agm_sum", exact_sum)
        lo, hi = engine._agm_perimeter(a, b, prec)
        (a1_lo, a1_hi), (b1_lo, b1_hi), (t1_lo, t1_hi), (s1_lo, s1_hi) = (
            (Dyadic.from_raw(lo_), Dyadic.from_raw(hi_)) for lo_, hi_ in handed)
        assert a1_lo <= (a + b) / 2 <= a1_hi, (a, b, prec)
        assert b1_lo**2 <= a * b <= b1_hi**2 and 0 <= b1_lo, (a, b, prec)  # sqrt(ab)
        assert t1_lo <= ((a - b) / 2) ** 2 <= t1_hi, (a, b, prec)
        assert s1_lo <= (a * a + b * b) / 2 <= s1_hi, (a, b, prec)
        with mp.workprec(4 * prec):
            p = 2 * mp.pi * _mpf(s) / _mpf(m)
            assert _brackets(Dyadic.from_raw(lo), Dyadic.from_raw(hi), p), (s, m, prec)


def test_tail_bound_bounds_each_tail_from_above_at_low_precision():
    # the geometric bound next_term / one_minus is rational; the slow one,
    # 1/(8 pi (n - 1/2)^2), is read from mpmath
    rng = random.Random(3005)
    seen = set()
    for i in range(300):
        prec = rng.randrange(8, 65)
        n = rng.randrange(0, 1024)
        next_term = F(rng.randrange(1, 2**64), 2**rng.randrange(64, 90))
        one_minus = F(rng.randrange(1, 2**64), 2**64) if i % 3 else F(0)
        tail, regime = engine._tail_bound(n, Dyadic(next_term)._mpf_,
                                          Dyadic(one_minus)._mpf_, prec)
        if one_minus == 0 and n < 2:
            assert tail is None and regime is None
            continue
        seen.add(regime)
        if regime == engine.GEOMETRIC_TAIL:
            assert next_term / one_minus <= Dyadic.from_raw(tail), (n, next_term, one_minus, prec)
        else:
            with mp.workprec(4 * prec):
                slow = 1 / (2 * mp.pi * (2 * n - 1) ** 2)
                assert slow <= mp.make_mpf(tail), (n, prec)
    assert seen == {engine.GEOMETRIC_TAIL, engine.SLOW_TAIL}


def test_theta_upper_constant_is_enclosed_at_every_low_precision():
    for prec in range(8, 65):
        enc = bounds._theta_upper_enclosure.__wrapped__(prec)
        with mp.workprec(4 * prec):
            assert _brackets(enc.lo, enc.hi, 4 / mp.pi - mp.mpf(14) / 11), prec


def test_agm_sum_encloses_its_sum_and_mean_at_low_precision():
    # exact step-one values of a real ellipse: binary a_1 >= b_1 > 0,
    # t_1 = a_1^2 - b_1^2 and s_1 = 2 a_1^2 - b_1^2, so S > 0 and the tail
    # argument holds.  Each kind of draw leaves other roundings without
    # slack.  S is held against the same recurrence, c_(n+1) = (a_n - b_n)/2,
    # and M against mpmath's agm, both at four times the bits plus 64
    rng = random.Random(3007)
    for i in range(600):
        prec = rng.randrange(8, 41)
        kind = i % 4
        a1 = F(1) if kind == 2 else F(rng.randrange(2**7, 2**8), 2**7)
        if kind == 0:  # b_1/a_1 down to 2^-30, where many t_n count
            b1 = a1 * F(rng.randrange(1, 2**8 + 1), 2**8) / 2**rng.randrange(0, 31)
        elif kind == 1:
            b1 = a1 * F(rng.randrange(2**7, 2**8 + 1), 2**8)
        elif kind == 2:  # the first steps nearly exact
            b1 = F(1, 2**rng.randrange(0, 31))
        else:  # one step ends the loop with an exact sum, so only the tail moves S_lo
            b1 = a1 * (1 - F(1, 2**rng.randrange(prec, 2 * prec)))
        t1, s1 = a1 * a1 - b1 * b1, 2 * a1 * a1 - b1 * b1
        (s_lo, s_hi), (m_lo, m_hi) = engine._agm_sum(
            *((Dyadic(v)._mpf_,) * 2 for v in (a1, b1, t1, s1)), prec)
        with mp.workprec(4 * prec + 64):
            a, b, s, n = _mpf(a1), _mpf(b1), _mpf(s1 - t1), 2
            while True:
                a, b, c = (a + b) / 2, mp.sqrt(a * b), (a - b) / 2  # c_n
                term = 2 ** (n - 1) * c * c
                s -= term
                n += 1
                if term <= s * mp.ldexp(1, -mp.prec):
                    break
            assert mp.make_mpf(s_lo) <= s <= mp.make_mpf(s_hi), (a1, b1, prec)
            assert mp.make_mpf(m_lo) <= mp.agm(_mpf(a1), _mpf(b1)) <= mp.make_mpf(m_hi), (
                a1, b1, prec)
