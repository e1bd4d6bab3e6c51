"""Binary periodic sequences and their correlation functions.

A sequence of period N is stored bit-packed in a single Python int (bit i
holds element i).  Every operation reads the sequence continued to Z_2N:
s || s for the periodic ones and s || (s + 1) for the odd-periodic ones, on
which the wrap of an index past N carries the sign flip of the odd-periodic
autocorrelation (OACF).  A shift is then a window of that 2N-bit word and
a correlation a window / XOR / popcount, 64 shifts to a window for a long
profile; a decimation reads the word's bit text in strided slices, one run
of positions d*i + t at a time, all on arbitrary-precision words and
byte strings.

All operations are pure functions returning new values.  Every value type
of the package is read-only (assigning or deleting a field raises
AttributeError), compares by value, pickles and copies to an equal value,
and is safe to share across threads.
"""

import math
import re
from collections import Counter
from itertools import accumulate, repeat
from operator import attrgetter, eq, ge, gt, le, lt, neg

__all__ = [
    "MAX_N",
    "BinarySequence",
    "CorrelationProfile",
    "ValueMultiset",
    "SequenceParseError",
    "NotCoprimeError",
    "pacf",
    "oacf",
    "pacf_profile",
    "oacf_profile",
    "oacf_distribution",
    "peak_oacf",
    "is_odd_optimal",
    "negate",
    "cyclic_shift",
    "nega_cyclic_shift",
    "decimate",
    "parker_double",
    "try_parker_split",
    "nega_decimate",
]

MAX_N = 65_536  # the CLI's largest period; an OACF profile at MAX_N takes 0.16 s

_SEPARATORS = " \t\r\n,"
# checked first: int() also accepts '_', a sign, whitespace and other digits
_INVALID_CHAR = re.compile(f"[^01{re.escape(_SEPARATORS)}]")
_DROP_SEPARATORS = str.maketrans("", "", _SEPARATORS)

# _correlations computes a profile in blocks of _BLOCK shifts from
# N = _BLOCKED_FROM on: the rung of ladder_kernels.py from which the blocks
# were the faster path for both profiles in every run
_BLOCKED_FROM = 1176
_BLOCK = 64


def _read_only(self, name, *value):
    raise AttributeError(f"cannot assign to or delete field {name!r} of a read-only record")


def _comparison(op, key):
    def compare(self, other):
        return op(key(self), key(other)) if other.__class__ is self.__class__ else NotImplemented

    return compare


def _record(order: bool = False):
    """Class decorator for a read-only value type, in place of
    ``dataclasses.dataclass(frozen=True)``, whose import and generated code
    cost more than the rest of the package's import.  The annotated names
    are the fields, in order.  Where the class does not define them itself,
    the record gets an ``__init__`` taking the fields by position or keyword,
    and ``__repr__``, ``__eq__`` and ``__hash__`` over them; ``order`` adds
    comparisons of the field tuples.  Assigning or deleting an attribute
    raises AttributeError, so a class's own ``__init__`` writes ``__dict__``,
    through which a record pickles and copies; a dict-valued field stays a
    plain dict, since a mapping proxy does not pickle."""

    def decorate(cls):
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        key = attrgetter(*fields)
        field_set = frozenset(fields)

        def __init__(self, *args, **kwargs):
            if not kwargs and len(args) == len(fields):
                self.__dict__.update(zip(fields, args))
                return
            # only a call that mixes positions and keywords builds a merged dict
            given = dict(zip(fields, args), **kwargs) if args else kwargs
            if len(args) + len(kwargs) != len(fields) or given.keys() != field_set:
                raise TypeError(f"{cls.__name__}() takes exactly the fields {', '.join(fields)}")
            self.__dict__.update({name: given[name] for name in fields})

        def __repr__(self):
            body = ", ".join(f"{name}={getattr(self, name)!r}" for name in fields)
            return f"{self.__class__.__qualname__}({body})"

        ops = (eq, lt, le, gt, ge) if order else (eq,)
        methods = {f"__{op.__name__}__": _comparison(op, key) for op in ops}
        methods.update(__init__=__init__, __repr__=__repr__, __hash__=lambda self: hash(key(self)))
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        cls.__setattr__ = cls.__delattr__ = _read_only
        return cls

    return decorate


class SequenceParseError(ValueError):
    """Malformed sequence literal; ``position`` is the offending index."""

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position


class NotCoprimeError(ValueError):
    """A decimation parameter shares a factor with the (doubled) period."""


@_record()
class BinarySequence:
    """Binary sequence of period N, bit-packed into ``word``.

    Bit i of ``word`` is the element at index i.  Raw element access
    requires 0 <= i < N; operations that wrap indices reduce them mod N
    explicitly.
    """

    word: int
    period: int

    def __init__(self, word: int, period: int):
        if period < 1:
            raise ValueError(f"period must be >= 1, got {period}")
        if not 0 <= word < (1 << period):
            raise ValueError(f"word does not fit in {period} bits")
        self.__dict__.update(word=word, period=period)

    @classmethod
    def from_bits(cls, bits) -> "BinarySequence":
        digits = bytearray()
        for b in bits:
            # an integer type has __index__; 1.0, Fraction(1) and 1+0j equal 1 without it
            if b not in (0, 1) or not hasattr(b, "__index__"):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            digits.append(48 + b)  # '0' or '1'
        return cls(int(digits[::-1] or b"0", 2), len(digits))

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        """Parse a '0'/'1' literal; whitespace and commas are ignored."""
        bad = _INVALID_CHAR.search(text)
        if bad:
            pos = bad.start()
            raise SequenceParseError(f"invalid character {bad.group()!r} at position {pos}", pos)
        digits = text.translate(_DROP_SEPARATORS)
        if not digits:
            raise SequenceParseError("empty sequence literal", 0)
        return _from_text(digits)

    def bits(self) -> list[int]:
        return list(map(int, _bit_text(self.word, self.period)))

    def __len__(self) -> int:
        return self.period

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.period:
            raise IndexError(f"index {i} out of range [0, {self.period})")
        return (self.word >> i) & 1

    def __str__(self) -> str:
        return _bit_text(self.word, self.period)

    def __repr__(self) -> str:
        return f"BinarySequence({str(self)!r})"


@_record()
class CorrelationProfile:
    """Correlation values indexed by shift tau in [0, N).

    For an autocorrelation profile values[0] == N, every value has the
    parity of N, and an OACF profile satisfies values[tau] == -values[N-tau].
    """

    values: tuple[int, ...]
    kind: str  # "PACF" or "OACF"

    @property
    def period(self) -> int:
        return len(self.values)


@_record()
class ValueMultiset:
    """Multiset of integer correlation values with multiplicities."""

    entries: dict[int, int]  # value -> multiplicity, by ascending value

    def __init__(self, values):
        self.__dict__["entries"] = dict(sorted(Counter(values).items()))

    def multiset_notation(self) -> str:
        """Render as ``{* (-9)^2, -3, 1^6, 31 *}`` (exponent = multiplicity)."""
        parts = []
        for value, mult in self.entries.items():
            if mult == 1:
                parts.append(str(value))
            elif value < 0:
                parts.append(f"({value})^{mult}")
            else:
                parts.append(f"{value}^{mult}")
        return "{* " + ", ".join(parts) + " *}"

    def __hash__(self) -> int:
        return hash(tuple(self.entries.items()))

    def __repr__(self) -> str:
        return f"ValueMultiset({self.multiset_notation()})"


def _mask(n: int) -> int:
    return (1 << n) - 1


def _bit_text(word: int, n: int) -> str:
    # '0'/'1' text of an n-bit word; character i is bit i
    return format(word, f"0{n}b")[::-1]


def _from_text(text) -> BinarySequence:
    # inverse of _bit_text, for str or bytes text
    return BinarySequence(int(text[::-1], 2), len(text))


def _extended(a: BinarySequence, sign: int) -> int:
    """The sequence continued to Z_2N, as the 2N-bit word of a || a for
    sign = 1, where a(i + N) = a(i), or of a || (a + 1) for sign = -1, where
    a(i + N) = a(i) + 1.  Every shift, decimation and correlation below
    reads its indices mod 2N from this word: the cyclic ones with sign = 1,
    the nega-cyclic (odd-periodic) ones with sign = -1."""
    tail = a.word if sign == 1 else a.word ^ _mask(a.period)
    return a.word | (tail << a.period)


def _columns(n: int, modulus: int, d: int) -> int:
    """The column count c <= 2*sqrt(n) of a gather that needs the fewest
    slices, about c + n*delta/modulus for delta = |c*d mod modulus| taken
    in [0, modulus/2].  Only the continued-fraction denominators q of
    d/modulus bring delta below its value at every smaller c, so only they
    are tried: x and y are |q*d - p*modulus| for the last two of them."""
    limit, best, least = math.isqrt(4 * n), 1, math.inf
    q0, q1, x, y = 0, 1, modulus, d % modulus
    while y and q1 <= limit:
        cost = q1 * modulus + n * (y if 2 * y <= modulus else modulus - y)
        if cost < least:
            best, least = q1, cost
        k = x // y
        q0, q1, x, y = q1, q0 + k * q1, y, x - k * y
    return best


def _gathered(a: BinarySequence, d: int, t: int, sign: int, requirement: str) -> BinarySequence:
    """b(i) = e(d*i + t) for i < N over the continued word e of ``a``; d must
    be a unit mod N (sign = 1) or mod 2N (sign = -1), and ``requirement``
    names the operation in the error.  Indices i = j (mod c) form column j,
    whose positions in the bit text of e step by delta = c*d, so each column
    is a few strided slices of the text between its wraps, written into the
    result with one strided assignment each."""
    n = a.period
    modulus, name = (n, "N") if sign == 1 else (2 * n, "2N")
    if math.gcd(d, modulus) != 1:
        raise NotCoprimeError(
            f"gcd(d={d}, {name}={modulus}) = {math.gcd(d, modulus)}; "
            f"{requirement} gcd(d, {name}) = 1"
        )
    # e has period N for sign = 1, so its N-bit text suffices there
    digits = format(a.word if sign == 1 else _extended(a, -1), f"0{modulus}b").encode()
    c = _columns(n, modulus, d)
    if 2 * (c * d % modulus) > modulus:
        # delta < 0: step forwards through the digits as printed, e(j) at modulus-1-j
        text, d, t = digits, -d, modulus - 1 - t
    else:
        text = digits[::-1]
    step = c * d % modulus or modulus  # 0 only for N = 1 and sign = 1
    out = bytearray(n)
    for j in range(c):
        i, p = j, (d * j + t) % modulus
        while i < n:
            # the rest of column j, cut short where its positions wrap
            run = text[p:p + (n - 1 - i) // c * step + 1:step]
            out[i:i + len(run) * c:c] = run
            i, p = i + len(run) * c, p + len(run) * step - modulus
    return _from_text(out)


def _check_shift(tau: int, n: int) -> None:
    if not 0 <= tau < n:
        raise ValueError(f"shift {tau} out of range [0, {n})")


def _window(a: BinarySequence, sign: int, tau: int) -> BinarySequence:
    # b(i) = e(i + tau) for i < N over the continued word e of ``a``
    _check_shift(tau, a.period)
    return BinarySequence((_extended(a, sign) >> tau) & _mask(a.period), a.period)


def _correlations_at(a: BinarySequence, sign: int, shifts) -> list[int]:
    """Correlation of ``a`` with its window at each tau in ``shifts``
    (0 <= tau < N): the PACF for sign = 1 and the OACF for sign = -1."""
    n, word, mask = a.period, a.word, _mask(a.period)
    ext = _extended(a, sign)
    return [n - 2 * (word ^ ((ext >> tau) & mask)).bit_count() for tau in shifts]


def _correlations(a: BinarySequence, sign: int) -> list[int]:
    """``_correlations_at`` every tau < N.  The value at N - tau is sign
    times the value at tau, so only tau <= N/2 is computed: one shift at a
    time below ``_BLOCKED_FROM``, and in blocks of ``_BLOCK`` from there."""
    n = a.period
    shifts = n // 2 + 1
    if n < _BLOCKED_FROM:
        half = _correlations_at(a, sign, range(shifts))
    else:
        half = _blocked_correlations(a, sign, shifts)
    mirror = half[(n - 1) // 2:0:-1]  # tau = (N-1)//2 down to 1, for N - tau ascending
    return half + (mirror if sign == 1 else list(map(neg, mirror)))


def _blocked_correlations(a: BinarySequence, sign: int, shifts: int) -> list[int]:
    """``_correlations_at`` every tau < ``shifts``, one block of shifts
    tau = b + r (r < B) per window base = bits [b, b + N + B) of the
    continued word e.  Bits [r, r + N) of base are the window at tau, so
    popcount(word ^ window) = popcount((word << r) ^ base) - popcount(base)
    + wt(tau), where wt(tau) is the window's weight: popcount(word) for the
    PACF, popcount(word) + tau - 2*popcount(word & mask(tau)) for the OACF."""
    n, word, block = a.period, a.word, _BLOCK
    ext, window = _extended(a, sign), _mask(n + block)
    shifted = [word << r for r in range(block)]
    # lift(tau) = n - 2*wt(tau); for the OACF, wt(tau + 1) - wt(tau) = 1 - 2*a(tau)
    lift = n - 2 * word.bit_count()
    lifts = (repeat(lift, shifts) if sign == 1 else
             accumulate(map({"0": -2, "1": 2}.get, _bit_text(word, n)[:shifts - 1]), initial=lift))
    values = []
    for b in range(0, shifts, block):
        base = (ext >> b) & window
        weight = 2 * base.bit_count()
        # zip takes the next `block` lifts, or the last ones
        values += [weight + lift - 2 * (w ^ base).bit_count() for w, lift in zip(shifted, lifts)]
    return values


def pacf(a: BinarySequence, tau: int) -> int:
    """Periodic autocorrelation of ``a`` at shift ``tau``."""
    _check_shift(tau, a.period)
    return _correlations_at(a, 1, (tau,))[0]


def oacf(a: BinarySequence, tau: int) -> int:
    """Odd-periodic (negaperiodic) autocorrelation of ``a`` at shift ``tau``:
    terms that wrap past the period pick up an extra sign flip."""
    _check_shift(tau, a.period)
    return _correlations_at(a, -1, (tau,))[0]


def pacf_profile(a: BinarySequence) -> CorrelationProfile:
    return CorrelationProfile(tuple(_correlations(a, 1)), "PACF")


def oacf_profile(a: BinarySequence) -> CorrelationProfile:
    return CorrelationProfile(tuple(_correlations(a, -1)), "OACF")


def oacf_distribution(a: BinarySequence, include_zero_shift: bool = True) -> ValueMultiset:
    """Multiset of OACF values over tau in [0, N), or [1, N) if excluded."""
    start = 0 if include_zero_shift else 1
    return ValueMultiset(oacf_profile(a).values[start:])


def peak_oacf(a: BinarySequence) -> int:
    """max |OACF| over the nonzero shifts 0 < tau < N."""
    if a.period < 2:
        raise ValueError("peak OACF is undefined for period 1")
    return max(map(abs, oacf_profile(a).values[1:]))


def is_odd_optimal(a: BinarySequence) -> bool:
    """True iff the nonzero-shift peak |OACF| meets the lower bound exactly:
    1 for odd N, 2 for even N."""
    bound = 1 if a.period % 2 else 2
    return peak_oacf(a) == bound


def negate(a: BinarySequence) -> BinarySequence:
    return BinarySequence(a.word ^ _mask(a.period), a.period)


def cyclic_shift(a: BinarySequence, tau: int) -> BinarySequence:
    """[a(tau), ..., a(N-1), a(0), ..., a(tau-1)]"""
    return _window(a, 1, tau)


def nega_cyclic_shift(a: BinarySequence, tau: int) -> BinarySequence:
    """Cyclic shift by ``tau`` that complements the wrapped prefix:
    [a(tau), ..., a(N-1), a(0)+1, ..., a(tau-1)+1]."""
    return _window(a, -1, tau)


def decimate(a: BinarySequence, d: int) -> BinarySequence:
    """b(i) = a(d*i mod N); requires gcd(d, N) = 1."""
    return _gathered(a, d, 0, 1, "decimation requires")


def parker_double(s: BinarySequence) -> BinarySequence:
    """The doubled sequence u = s || (s + 1) of period 2N."""
    return BinarySequence(_extended(s, -1), 2 * s.period)


def try_parker_split(u: BinarySequence) -> BinarySequence | None:
    """First half of ``u`` if u has even period 2N and u(i+N) = u(i)+1 for
    all i < N; None otherwise."""
    if u.period % 2:
        return None
    s = BinarySequence(u.word & _mask(u.period // 2), u.period // 2)
    return s if _extended(s, -1) == u.word else None


def nega_decimate(s: BinarySequence, d: int) -> BinarySequence:
    """Nega-decimation: s'(tau) = s(d*tau mod N) + floor((d*tau mod 2N) / N).

    Equals decimating the doubled sequence s || (s + 1) by d and truncating
    to the first half; requires gcd(d, 2N) = 1.
    """
    return _gathered(s, d, 0, -1, "nega-decimation requires")
