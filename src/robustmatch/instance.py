"""Preference instances, single upward-shift errors, and error distributions.

An instance is a two-sided market: boys 0..n_boys-1 and girls 0..n_girls-1,
each with a strictly ordered (possibly incomplete) preference list over the
other side.  Acceptability is mutual: g appears on b's list iff b appears on
g's list.

A shift is the elementary preference error studied here: one agent's list is
altered by moving a single entry (the mover) upward over a window of k
consecutive entries.  All data structures in this module are immutable, so
instances and shifts can be shared freely between threads.

A distribution holds its probabilities as integer weights over one
denominator; the ``Fraction`` form (``entries``) is built on its first read.
The readers split each line once and resolve agent names through
per-instance tables (``boy_ids``, ``girl_ids``), parsing only a token that
is not an agent's own name.  They read ``a/b`` probabilities as the two
integers written, raw, and reduce them once, over the gcd common to all
weights and their common denominator.  The matching writers read names off
the inverse tables (``boy_names``, ``girl_names``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

Agent = int

GIRL_LIST = "GIRL_LIST"
BOY_LIST = "BOY_LIST"
_SIDES = (GIRL_LIST, BOY_LIST)


class InstanceFormatError(ValueError):
    """Raised for malformed instance or distribution text, with a line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


def boy_name(b: Agent) -> str:
    return f"b{b + 1}"


def girl_name(g: Agent) -> str:
    return f"g{g + 1}"


def _is_number(token: str) -> bool:
    """ASCII digits only: ``str.isdigit`` also accepts "²", which ``int`` rejects."""
    return token.isascii() and token.isdigit()


def _name_table(prefix: str, count: int) -> dict[str, Agent]:
    """Every agent's own name to its id: ``b7`` -> 6."""
    return {f"{prefix}{i + 1}": i for i in range(count)}


def _parse_agent(token: str, ids: dict[str, Agent], prefix: str, line: int | None) -> Agent:
    """The id of an agent token, read from the side's name table ``ids``.

    Only a token that is not an agent's own name (``g01``, ``g0``, ``x1``)
    is parsed, and accepted when its digits name an agent of the side.
    """
    ident = ids.get(token)
    if ident is not None:
        return ident
    if not token.startswith(prefix) or not _is_number(token[len(prefix):]):
        raise InstanceFormatError(f"expected an agent like {prefix}3, got {token!r}", line)
    ident = int(token[len(prefix):]) - 1
    if not 0 <= ident < len(ids):
        raise InstanceFormatError(f"agent {token!r} out of range (1..{len(ids)})", line)
    return ident


@dataclass(frozen=True)
class PreferenceInstance:
    """An immutable two-sided preference system with mutual acceptability."""

    boy_prefs: tuple[tuple[Agent, ...], ...]
    girl_prefs: tuple[tuple[Agent, ...], ...]

    def __post_init__(self):
        """Checked through the rank tables, which check ranges and duplicates
        as they are built.  Once every boy's entry is on the girl's list,
        equal entry totals make the two sides list the same pairs."""
        boy_rank, girl_rank = self.boy_rank, self.girl_rank
        for b, prefs in enumerate(self.boy_prefs):
            for g in prefs:
                if b not in girl_rank[g]:
                    raise ValueError(
                        f"acceptability is not mutual: {boy_name(b)} lists "
                        f"{girl_name(g)} but not vice versa"
                    )
        if sum(map(len, self.boy_prefs)) != sum(map(len, self.girl_prefs)):
            g, b = next((g, b) for g, prefs in enumerate(self.girl_prefs)
                        for b in prefs if g not in boy_rank[b])
            raise ValueError(
                f"acceptability is not mutual: {girl_name(g)} lists "
                f"{boy_name(b)} but not vice versa"
            )

    @classmethod
    def from_lists(cls, boy_prefs, girl_prefs) -> "PreferenceInstance":
        return cls(
            tuple(tuple(p) for p in boy_prefs),
            tuple(tuple(p) for p in girl_prefs),
        )

    @property
    def n_boys(self) -> int:
        return len(self.boy_prefs)

    @property
    def n_girls(self) -> int:
        return len(self.girl_prefs)

    @cached_property
    def boy_rank(self) -> tuple[dict[Agent, int], ...]:
        """Per boy: girl id -> position in his list (0 is most preferred)."""
        return _rank_tables(self.boy_prefs, self.n_girls, "boy")

    @cached_property
    def girl_rank(self) -> tuple[dict[Agent, int], ...]:
        return _rank_tables(self.girl_prefs, self.n_boys, "girl")

    @cached_property
    def boy_names(self) -> tuple[str, ...]:
        """Boy id -> name (6 -> ``b7``), the inverse of boy_ids."""
        return tuple(map(boy_name, range(self.n_boys)))

    @cached_property
    def girl_names(self) -> tuple[str, ...]:
        return tuple(map(girl_name, range(self.n_girls)))

    @cached_property
    def boy_ids(self) -> dict[str, Agent]:
        """Boy name -> id (``b7`` -> 6)."""
        return _name_table("b", self.n_boys)

    @cached_property
    def girl_ids(self) -> dict[str, Agent]:
        return _name_table("g", self.n_girls)

    @cached_property
    def is_complete(self) -> bool:
        """True when both sides have equal size and every list is full."""
        if self.n_boys != self.n_girls:
            return False
        return all(len(p) == self.n_girls for p in self.boy_prefs) and all(
            len(p) == self.n_boys for p in self.girl_prefs
        )

    def prefs_of(self, side: str, agent: Agent) -> tuple[Agent, ...]:
        return (self.girl_prefs if side == GIRL_LIST else self.boy_prefs)[agent]


def _rank_tables(prefs, other_count: int, who: str) -> tuple[dict[Agent, int], ...]:
    """Per list: listed agent -> position.  A list must name only integer
    ids of agents of the other side, each at most once; the first entry
    that does not raises, a repeat when ``setdefault`` returns its earlier
    position."""
    ranks = []
    for a, lst in enumerate(prefs):
        rank = {}
        for i, x in enumerate(lst):
            if not isinstance(x, int):
                raise ValueError(f"{who} {a + 1}: listed agent id {x!r} is not an integer")
            if not 0 <= x < other_count:
                raise ValueError(f"{who} {a + 1}: listed agent id {x} out of range")
            if rank.setdefault(x, i) != i:
                raise ValueError(f"{who} {a + 1}: duplicate entry in preference list")
        ranks.append(rank)
    return tuple(ranks)


def reversed_instance(inst: PreferenceInstance) -> PreferenceInstance:
    """Swap the roles of the two sides (girls become the proposing side)."""
    return PreferenceInstance(inst.girl_prefs, inst.boy_prefs)


# ---------------------------------------------------------------------------
# shifts

@dataclass(frozen=True, slots=True)
class Shift:
    """Move ``mover`` upward over the ``window`` entries directly above it.

    ``side`` names whose list is altered: GIRL_LIST means agent is a girl and
    mover is a boy on her list, BOY_LIST the mirror image.  In a list
    (..., x1, ..., xk, mover, ...) the shifted list reads
    (..., mover, x1, ..., xk, ...).
    """

    side: str
    agent: Agent
    mover: Agent
    window: int

    def __post_init__(self):
        if self.side not in _SIDES:
            raise ValueError(f"unknown side {self.side!r}")
        if self.window < 1:
            raise ValueError("shift window must be at least 1")

    def describe(self) -> str:
        if self.side == GIRL_LIST:
            return f"{GIRL_LIST} {girl_name(self.agent)} {boy_name(self.mover)} {self.window}"
        return f"{BOY_LIST} {boy_name(self.agent)} {girl_name(self.mover)} {self.window}"


def mover_position(inst: PreferenceInstance, shift: Shift) -> int:
    """Position of the mover in the agent's list; validates the shift."""
    ranks = inst.girl_rank if shift.side == GIRL_LIST else inst.boy_rank
    if not 0 <= shift.agent < len(ranks):
        raise ValueError(f"{shift.side} shift agent {shift.agent} out of range (0..{len(ranks) - 1})")
    pos = ranks[shift.agent].get(shift.mover)
    if pos is not None and pos >= shift.window:
        return pos
    agent = girl_name(shift.agent) if shift.side == GIRL_LIST else boy_name(shift.agent)
    if pos is None:
        raise ValueError(f"shift mover is not on the list of {agent}")
    raise ValueError(
        f"shift window {shift.window} does not fit above position {pos} "
        f"in the list of {agent}"
    )


def apply_shift(inst: PreferenceInstance, shift: Shift) -> PreferenceInstance:
    """Return the erroneous instance produced by one upward shift."""
    pos = mover_position(inst, shift)
    prefs = inst.prefs_of(shift.side, shift.agent)
    lo = pos - shift.window
    new_list = prefs[:lo] + (shift.mover,) + prefs[lo:pos] + prefs[pos + 1:]
    if shift.side == GIRL_LIST:
        girl_prefs = list(inst.girl_prefs)
        girl_prefs[shift.agent] = new_list
        return PreferenceInstance(inst.boy_prefs, tuple(girl_prefs))
    boy_prefs = list(inst.boy_prefs)
    boy_prefs[shift.agent] = new_list
    return PreferenceInstance(tuple(boy_prefs), inst.girl_prefs)


def enumerate_shift_domain(inst: PreferenceInstance) -> list[Shift]:
    """All single upward shifts over the instance, in a deterministic order.

    Each list of length L contributes L*(L-1)/2 shifts: every mover position
    paired with every window that stays inside the list.
    """
    domain = []
    for side, side_prefs in ((GIRL_LIST, inst.girl_prefs), (BOY_LIST, inst.boy_prefs)):
        for agent, prefs in enumerate(side_prefs):
            for pos in range(1, len(prefs)):
                mover = prefs[pos]
                for window in range(1, pos + 1):
                    domain.append(Shift(side, agent, mover, window))
    return domain


# ---------------------------------------------------------------------------
# distributions

class ShiftDistribution:
    """A probability distribution over shifts, with exact rational weights.

    Every probability is an integer weight over the one ``denominator``:
    ``weights`` holds a (shift, weight) pair per listed shift, and the shift
    has probability weight / denominator.  An explicit distribution's
    denominator is the least common multiple of its probabilities'
    denominators in lowest terms; the uniform one's is |D|.  The
    ``Fraction`` pairs of ``entries`` are the ones given to the constructor,
    or else built on their first read.

    Non-empty distributions must sum to exactly 1.  ``allow_partial`` relaxes
    that to <= 1 for internal sensitivity tests; file parsing never sets it.
    Distributions are not changed after construction.
    """

    def __init__(self, entries: tuple[tuple[Shift, Fraction], ...] = (), allow_partial: bool = False):
        entries = tuple(entries)
        self._set_weights(
            [shift for shift, _ in entries],
            [p.numerator for _, p in entries],
            [p.denominator for _, p in entries],
            allow_partial,
        )
        self._entries: tuple[tuple[Shift, Fraction], ...] | None = entries

    def _set_weights(self, shifts: list[Shift], numerators: list[int], denominators: list[int], allow_partial: bool):
        """Keep the shifts, probability i being numerators[i] / denominators[i],
        as integer weights over one denominator, after the checks on
        duplicates, signs and the sum.

        The fractions need not be in lowest terms.  Over D', the least
        common multiple of the denominators as given, the weights are
        divided once by g = gcd(D', w_1, ..., w_n): D' / g is then exactly
        the least common multiple of the denominators in lowest terms, and
        fractions already in lowest terms give g = 1.
        """
        # the instance whose whole shift domain this distribution is uniform over
        self.uniform_over: PreferenceInstance | None = None
        # the instance every listed shift was located in when it was parsed
        self._parsed_for: PreferenceInstance | None = None
        self._entries = None
        distinct = set(denominators)
        common = math.lcm(*distinct)
        scale = {d: common // d for d in distinct}
        weights = [n * scale[d] for n, d in zip(numerators, denominators)]
        g = math.gcd(common, *weights)
        if g > 1:
            common //= g
            weights = [w // g for w in weights]
        self.denominator = common
        if len(set(shifts)) != len(shifts) or min(weights, default=0) < 0:
            seen = set()
            for shift, w in zip(shifts, weights):
                if shift in seen:
                    raise ValueError(f"duplicate shift in distribution: {shift.describe()}")
                seen.add(shift)
                if w < 0:
                    raise ValueError(f"negative probability for {shift.describe()}")
        self._weight_sum = sum(weights)
        if shifts and not allow_partial and self._weight_sum != self.denominator:
            raise ValueError(f"distribution sums to {self.total}, expected exactly 1")
        if allow_partial and self._weight_sum > self.denominator:
            raise ValueError(f"distribution sums to {self.total}, more than 1")
        self._weights: tuple[tuple[Shift, int], ...] | None = tuple(zip(shifts, weights))

    @classmethod
    def uniform(cls, inst: PreferenceInstance) -> "ShiftDistribution":
        """Every shift of ``inst`` with probability 1/|D|.

        Only the instance and |D| (the sum of L(L-1)/2 over all lists) are
        stored.  ``weights`` and ``entries`` are built on their first read,
        in ``enumerate_shift_domain`` order, so a solver that works from the
        instance never creates the per-shift objects.
        """
        dist = cls()
        dist.uniform_over = inst
        domain_size = sum(len(p) * (len(p) - 1) // 2 for p in inst.girl_prefs + inst.boy_prefs)
        if domain_size:
            dist.denominator = dist._weight_sum = domain_size
            dist._weights = dist._entries = None
        return dist

    @property
    def weights(self) -> tuple[tuple[Shift, int], ...]:
        """(shift, integer weight over ``denominator``) per listed shift."""
        if self._weights is None:
            self._weights = tuple((shift, 1) for shift in enumerate_shift_domain(self.uniform_over))
        return self._weights

    @property
    def entries(self) -> tuple[tuple[Shift, Fraction], ...]:
        """(shift, probability) per listed shift."""
        if self._entries is None:
            probability = {w: Fraction(w, self.denominator) for w in {w for _, w in self.weights}}
            self._entries = tuple((shift, probability[w]) for shift, w in self.weights)
        return self._entries

    @property
    def total(self) -> Fraction:
        return Fraction(self._weight_sum, self.denominator)

    def validate_for(self, inst: PreferenceInstance):
        """Check that every supported shift is applicable to ``inst``.

        A uniform distribution's shifts are exactly those of the instance it
        was built over, and a parsed one's were each located in the instance
        it was parsed against, so for those only the instance is compared.
        """
        if self.uniform_over is not None:
            if self.uniform_over != inst:
                raise ValueError("the uniform distribution was built over another instance")
            return
        if self._parsed_for is not None and self._parsed_for == inst:
            return
        for shift, _ in self.weights:
            mover_position(inst, shift)


def _shift_reader(inst: PreferenceInstance):
    """The reader of one shift's tokens ``side agent mover k`` in ``inst``,
    shared by ``parse_shift`` and ``parse_distribution``.

    Agents' own names and windows in canonical form are read from tables,
    and the mover's position from the side's rank table; any other token,
    and every failure, goes through the general checks, whose messages name
    the first offending token.
    """
    longest = max(map(len, inst.boy_prefs + inst.girl_prefs), default=0)
    windows = {str(k): k for k in range(1, longest)}
    sides = {
        GIRL_LIST: (inst.girl_ids, "g", inst.boy_ids, "b", inst.girl_rank),
        BOY_LIST: (inst.boy_ids, "b", inst.girl_ids, "g", inst.boy_rank),
    }

    def read(side: str, agent_tok: str, mover_tok: str, k_tok: str, line: int | None) -> Shift:
        tables = sides.get(side)
        if tables is None:
            raise InstanceFormatError(f"unknown side {side!r}", line)
        agent_ids, agent_prefix, mover_ids, mover_prefix, ranks = tables
        agent = agent_ids.get(agent_tok)
        if agent is None:
            agent = _parse_agent(agent_tok, agent_ids, agent_prefix, line)
        mover = mover_ids.get(mover_tok)
        if mover is None:
            mover = _parse_agent(mover_tok, mover_ids, mover_prefix, line)
        k = windows.get(k_tok)
        if k is None:
            if not _is_number(k_tok) or int(k_tok) < 1:
                raise InstanceFormatError(f"window must be a positive integer, got {k_tok!r}", line)
            k = int(k_tok)
        shift = Shift(side, agent, mover, k)
        pos = ranks[agent].get(mover)
        if pos is None or pos < k:
            try:
                mover_position(inst, shift)
            except ValueError as exc:
                raise InstanceFormatError(str(exc), line) from None
        return shift

    return read


def parse_shift(text: str, inst: PreferenceInstance, line: int | None = None) -> Shift:
    """Parse ``SIDE agent mover k`` (e.g. ``GIRL_LIST g1 b1 1``)."""
    parts = text.split()
    if len(parts) != 4:
        raise InstanceFormatError(f"expected 'SIDE agent mover k', got {text!r}", line)
    return _shift_reader(inst)(*parts, line)


def _parse_probability(token: str, line: int) -> tuple[int, int]:
    """A probability not written as plain ``a/b``, as (numerator, denominator).

    Every such form (``1``, ``0.5``, ``+1/2``, ``1e-1``) goes through
    ``Fraction``, but only in ASCII (``Fraction`` also reads digits such as
    "\\u0661") and without ``_`` (which ``Fraction`` reads from Python 3.11
    on).
    """
    if token.isascii() and "_" not in token:
        try:
            p = Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return p.numerator, p.denominator
    raise InstanceFormatError(f"bad probability {token!r}", line)


def parse_distribution(text: str, inst: PreferenceInstance) -> ShiftDistribution:
    """Parse distribution text: one ``SIDE agent mover k p_num/p_den`` per line.

    Each line is split once.  An ``a/b`` probability in ASCII digits keeps
    its two integers as written, each distinct denominator string converted
    once; ``ShiftDistribution`` reduces them all together.
    """
    read_shift = _shift_reader(inst)
    # denominator string -> its value, or 0 when it is not a positive integer
    # in ASCII digits, which sends the probability to ``_parse_probability``
    denominator_of: dict[str, int] = {}
    shifts, numerators, denominators = [], [], []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        if len(parts) != 5:
            if len(parts) == 1:
                raise InstanceFormatError("expected 'SIDE agent mover k p_num/p_den'", line_no)
            parse_shift(raw.strip().rsplit(None, 1)[0], inst, line_no)  # raises: not four tokens
        side, agent_tok, mover_tok, k_tok, p_tok = parts
        shifts.append(read_shift(side, agent_tok, mover_tok, k_tok, line_no))
        num, _, den = p_tok.partition("/")
        d = denominator_of.get(den)
        if d is None:
            d = denominator_of[den] = int(den) if _is_number(den) else 0
        if d and num.isascii() and num.isdigit():  # isdigit alone accepts "\u0661"
            n = int(num)
        else:
            n, d = _parse_probability(p_tok, line_no)
        numerators.append(n)
        denominators.append(d)
    dist = ShiftDistribution()
    try:
        dist._set_weights(shifts, numerators, denominators, False)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None
    dist._parsed_for = inst
    return dist


def serialize_distribution(dist: ShiftDistribution) -> str:
    lines = []
    for shift, p in dist.entries:
        lines.append(f"{shift.describe()} {p.numerator}/{p.denominator}")
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# instance file format

def parse_instance(text: str) -> PreferenceInstance:
    """Parse the plain-text instance format.

    Line 1 holds ``n`` (or ``n_boys n_girls`` for unequal sides), followed by
    one ``b<i>: ...`` line per boy and one ``g<j>: ...`` line per girl, in
    id order.  Empty lists are written as ``b1:`` with nothing after the colon.
    """
    lines = text.splitlines()
    meaningful = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not meaningful:
        raise InstanceFormatError("empty instance file")
    header_line, header = meaningful[0]
    counts = header.split()
    if len(counts) not in (1, 2) or not all(_is_number(c) for c in counts):
        raise InstanceFormatError(f"expected 'n' or 'n_boys n_girls', got {header!r}", header_line)
    n_boys = int(counts[0])
    n_girls = int(counts[-1])
    body = meaningful[1:]
    if len(body) != n_boys + n_girls:
        raise InstanceFormatError(
            f"expected {n_boys + n_girls} preference lines, found {len(body)}",
            header_line,
        )

    def read_lists(rows, prefix, other_prefix, other_ids):
        out = []
        for idx, (line_no, row) in enumerate(rows):
            head, sep, rest = row.partition(":")
            if not sep:
                raise InstanceFormatError("missing ':' in preference line", line_no)
            expected = f"{prefix}{idx + 1}"
            if head.strip() != expected:
                raise InstanceFormatError(
                    f"expected list for {expected}, got {head.strip()!r}", line_no
                )
            tokens = rest.split()
            prefs = tuple(map(other_ids.get, tokens))
            distinct = set(prefs)
            if None in distinct or len(distinct) != len(prefs):
                # a token that is not an agent's own name, or a repeat: read
                # token by token, naming the first one that fails
                listed = {}
                for token in tokens:
                    a = _parse_agent(token, other_ids, other_prefix, line_no)
                    if a in listed:
                        raise InstanceFormatError(f"duplicate entry {token}", line_no)
                    listed[a] = None
                prefs = tuple(listed)
            out.append(prefs)
        return tuple(out)

    boy_prefs = read_lists(body[:n_boys], "b", "g", _name_table("g", n_girls))
    girl_prefs = read_lists(body[n_boys:], "g", "b", _name_table("b", n_boys))
    try:
        return PreferenceInstance(boy_prefs, girl_prefs)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from None


def serialize_instance(inst: PreferenceInstance) -> str:
    lines = []
    if inst.n_boys == inst.n_girls:
        lines.append(str(inst.n_boys))
    else:
        lines.append(f"{inst.n_boys} {inst.n_girls}")
    for b, prefs in enumerate(inst.boy_prefs):
        entries = " ".join(girl_name(g) for g in prefs)
        lines.append(f"{boy_name(b)}: {entries}".rstrip())
    for g, prefs in enumerate(inst.girl_prefs):
        entries = " ".join(boy_name(b) for b in prefs)
        lines.append(f"{girl_name(g)}: {entries}".rstrip())
    return "\n".join(lines) + "\n"
