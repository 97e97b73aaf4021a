"""Exact energy bookkeeping for the low-temperature Ising box.

Energies are kept as integer pairs (bonds, pluses) meaning
``bonds - h * pluses`` for the magnetic field h.  For an irrational h two
energies are equal iff the pairs coincide, so all landscape comparisons can
be carried out in integer arithmetic, with no floating point ties.  Rational
fields are supported in a flagged "tie-audit" mode where value equality no
longer implies pair equality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_SURD_RE = re.compile(r"^sqrt\(?(\d+)\)?(?:/(\d+))?$")


def _is_square(n):
    r = math.isqrt(n)
    return r * r == n


def _sign(x):
    return (x > 0) - (x < 0)


class MagneticField:
    """The magnetic field h, either sqrt(p)/q (treated as irrational) or rational.

    Tokens: ``sqrt2/2``, ``sqrt(3)/3``, ``sqrt5`` (q=1 is rejected by the
    0 < h < 1 constraint unless p fits), or a rational like ``0.5``, ``1/20``.
    """

    __slots__ = ("token", "p", "q", "rational", "approx")

    def __init__(self, token):
        token = str(token).strip()
        self.token = token
        m = _SURD_RE.match(token)
        if m:
            p = int(m.group(1))
            q = int(m.group(2)) if m.group(2) else 1
            if p < 2 or _is_square(p):
                raise ValueError(f"surd field needs a non-square p >= 2, got {p}")
            if q < 1:
                raise ValueError("surd field needs q >= 1")
            self.p, self.q = p, q
            self.rational = None
            self.approx = math.sqrt(p) / q
        else:
            try:
                frac = Fraction(token)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"cannot parse field token {token!r}") from exc
            self.p = self.q = None
            self.rational = frac
            self.approx = float(frac)
        if not 0.0 < self.approx < 1.0:
            raise ValueError(f"field must satisfy 0 < h < 1, got {self.approx}")

    @property
    def is_irrational(self):
        return self.rational is None

    def compare_pair(self, dbonds, dpluses):
        """Exact sign of dbonds - h * dpluses."""
        if self.rational is not None:
            return _sign(dbonds * self.rational.denominator
                         - dpluses * self.rational.numerator)
        # sign of A - B*sqrt(p) with A = q*dbonds, B = dpluses
        a = self.q * dbonds
        b = dpluses
        if b == 0:
            return _sign(a)
        if a <= 0 and b > 0:
            return -1
        if a >= 0 and b < 0:
            return 1
        t = _sign(a * a - b * b * self.p)
        return t if a > 0 else -t

    def level_key(self, bonds, pluses):
        """Hashable key identifying the exact value bonds - h*pluses."""
        if self.rational is not None:
            return bonds * self.rational.denominator - pluses * self.rational.numerator
        return (bonds, pluses)

    def exact_value(self, bonds, pluses):
        """Fraction for rational h, float otherwise."""
        if self.rational is not None:
            return bonds - self.rational * pluses
        return bonds - self.approx * pluses

    def __eq__(self, other):
        if not isinstance(other, MagneticField):
            return NotImplemented
        return (self.p, self.q, self.rational) == (other.p, other.q, other.rational)

    def __hash__(self):
        return hash((self.p, self.q, self.rational))

    def __repr__(self):
        return f"MagneticField({self.token!r})"


class EnergyValue:
    """Energy bonds - h*pluses held exactly as an integer pair."""

    __slots__ = ("bonds", "pluses", "field")

    def __init__(self, bonds, pluses, field):
        self.bonds = int(bonds)
        self.pluses = int(pluses)
        self.field = field

    @classmethod
    def zero(cls, field):
        return cls(0, 0, field)

    @property
    def value(self):
        return self.bonds - self.field.approx * self.pluses

    def exact_value(self):
        return self.field.exact_value(self.bonds, self.pluses)

    def pair(self):
        return (self.bonds, self.pluses)

    def same_pair(self, other):
        return self.bonds == other.bonds and self.pluses == other.pluses

    def _cmp(self, other):
        if isinstance(other, _NegInfEnergy):
            return 1
        if self.field is not other.field and self.field != other.field:
            raise ValueError("cannot compare energies under different fields")
        return self.field.compare_pair(self.bonds - other.bonds,
                                       self.pluses - other.pluses)

    def compare_zero(self):
        return self.field.compare_pair(self.bonds, self.pluses)

    def __add__(self, other):
        return EnergyValue(self.bonds + other.bonds, self.pluses + other.pluses,
                           self.field)

    def __sub__(self, other):
        return EnergyValue(self.bonds - other.bonds, self.pluses - other.pluses,
                           self.field)

    def uphill_part(self):
        """max(0, self), the Metropolis activation cost."""
        if self.compare_zero() > 0:
            return self
        return EnergyValue.zero(self.field)

    def __eq__(self, other):
        if isinstance(other, _NegInfEnergy):
            return False
        if not isinstance(other, EnergyValue):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash(self.field.level_key(self.bonds, self.pluses))

    def __repr__(self):
        return f"EnergyValue({self.bonds}, {self.pluses}; {self.value:.6g})"


class _NegInfEnergy:
    """Sentinel below every finite energy; the height of a singleton set."""

    __slots__ = ()

    @property
    def value(self):
        return float("-inf")

    def __eq__(self, other):
        return isinstance(other, _NegInfEnergy)

    def __lt__(self, other):
        return not isinstance(other, _NegInfEnergy)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInfEnergy)

    def __hash__(self):
        return hash("-inf-energy")

    def __repr__(self):
        return "NEG_INF_ENERGY"


NEG_INF_ENERGY = _NegInfEnergy()
