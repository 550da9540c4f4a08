"""Plain-text files for instances and solutions.

Sizes and fractions are serialized as exact rational strings ("3/4"), so a
round-trip is bit-exact.  Solution files embed a digest of the instance to
catch mismatched verification.  Only ``instance_digest`` imports hashlib, so
OpenSSL's libcrypto loads only when a digest is computed (``solve --out``,
``verify``), not when the package is imported.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from typing import TextIO, Union

from .core import CostFunction, FractionalPacking, Instance, Packing, make_cost_function, make_fq

INSTANCE_FORMAT = "concavebp-instance-v1"
SOLUTION_FORMAT = "concavebp-solution-v1"


class ParseError(ValueError):
    pass


def instance_digest(inst: Instance) -> str:
    import hashlib  # here, so that only a digest loads OpenSSL's libcrypto

    text = " ".join(str(s) for s in inst.sizes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def write_instance(inst: Instance, fh: TextIO) -> None:
    fh.write(f"format: {INSTANCE_FORMAT}\n")
    fh.write(f"n: {inst.n}\n")
    fh.write("sizes: " + " ".join(str(s) for s in inst.sizes) + "\n")


# CPython's default int-to-string digit limit; it caps exponents where the
# interpreter sets no limit (0, or no sys.get_int_max_str_digits at all)
DEFAULT_DIGIT_LIMIT = 4300


def _fraction(tok: str) -> Fraction:
    """``Fraction(tok)``, refused with ValueError when str() could not print
    it back under ``sys.get_int_max_str_digits()``, as digests and messages
    do; an exponent past that limit, or past DEFAULT_DIGIT_LIMIT where the
    interpreter has none, is refused before Fraction expands it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or DEFAULT_DIGIT_LIMIT
    _, e, exp = tok.lower().partition("e")
    # an exponent with more digits than the limit itself is over it, and is
    # refused without int(), which takes quadratic time in the digits
    digits = exp.lstrip("+-").lstrip("0")
    if e and (len(digits) > len(str(limit)) or abs(int(exp)) > limit):
        raise ValueError(f"an exponent exceeds the {limit}-digit limit")
    value = Fraction(tok)
    str(value)  # ValueError past the limit
    return value


def _read_keyvals(fh: TextIO) -> list[tuple[str, str]]:
    out = []
    for line in fh:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"malformed line: {line!r}")
        key, _, value = line.partition(":")
        out.append((key.strip(), value.strip()))
    return out

def read_instance(fh: TextIO) -> Instance:
    fields = dict(_read_keyvals(fh))
    if fields.get("format") != INSTANCE_FORMAT:
        raise ParseError(f"not an instance file (format: {fields.get('format')!r})")
    try:
        n = int(fields["n"])
        raw = fields["sizes"].split()
        # one parse per distinct token, in file order, so the first bad
        # token is the one reported
        fraction_of: dict[str, Fraction] = {}
        for tok in raw:
            if tok not in fraction_of:
                fraction_of[tok] = _fraction(tok)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad instance file: {exc}") from exc
    if len(raw) != n:
        raise ParseError(f"instance declares {n} sizes but lists {len(raw)}")
    sizes = list(map(fraction_of.__getitem__, raw))
    # drop the tokens and the dict before from_values, whose peak they would raise
    del raw, fraction_of
    try:
        return Instance.from_values(sizes)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def parse_cost_spec(spec: str, n: int) -> CostFunction:
    """Either "fq:<q>" or "table:v0,v1,..." as a table of n + 1 entries.

    A table spec is checked and normalized whole, one float per listed
    value, and then cut to n + 1 entries or extended concavely flat by
    repeating its last float; for n < 1 it keeps the values it lists.
    """
    if spec.startswith("fq:"):
        try:
            return make_fq(int(spec[3:]), max(n, 1))
        except ValueError as exc:
            raise ParseError(f"bad cost spec {spec!r}: {exc}") from exc
    if spec.startswith("table:"):
        try:
            vals = [float(tok) for tok in spec[6:].split(",")]
        except ValueError as exc:
            raise ParseError(f"bad cost spec {spec!r}") from exc
        if len(vals) < 2:
            raise ParseError("cost table needs at least two values")
        try:
            f = make_cost_function(vals)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        return f.resized(n) if n >= 1 else f
    raise ParseError(f"cost spec must be fq:<q> or table:<v0,v1,...>, got {spec!r}")


def write_solution(
    packing: Union[Packing, FractionalPacking],
    inst: Instance,
    algorithm: str,
    cost_spec: str,
    cost: float,
    fh: TextIO,
) -> None:
    fractional = isinstance(packing, FractionalPacking)
    fh.write(f"format: {SOLUTION_FORMAT}\n")
    fh.write(f"instance_digest: {instance_digest(inst)}\n")
    fh.write(f"algorithm: {algorithm}\n")
    fh.write(f"cost_spec: {cost_spec}\n")
    fh.write(f"kind: {'fractional' if fractional else 'integral'}\n")
    fh.write(f"cost: {cost!r}\n")
    fh.write(f"bins: {packing.num_bins}\n")
    for b in packing.bins:
        if fractional:
            fh.write("bin: " + " ".join(f"{i}={fr}" for i, fr in b) + "\n")
        else:
            fh.write("bin: " + " ".join(str(i) for i in b) + "\n")


def read_solution(fh: TextIO) -> dict:
    """Returns a dict with keys: packing, digest, algorithm, cost_spec, cost."""
    fields: dict[str, str] = {}
    bins_raw: list[str] = []
    for key, value in _read_keyvals(fh):
        if key == "bin":
            bins_raw.append(value)
        else:
            fields[key] = value
    if fields.get("format") != SOLUTION_FORMAT:
        raise ParseError(f"not a solution file (format: {fields.get('format')!r})")
    try:
        kind = fields["kind"]
        cost = float(fields["cost"])
        declared = int(fields["bins"])
        digest = fields["instance_digest"]
        algorithm = fields["algorithm"]
        cost_spec = fields["cost_spec"]
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad solution file: {exc}") from exc
    if declared != len(bins_raw):
        raise ParseError(f"solution declares {declared} bins but lists {len(bins_raw)}")
    items: set[int] = set()
    try:
        if kind == "fractional":
            bins = []
            fraction_of: dict[str, Fraction] = {}  # one parse per distinct part
            for raw in bins_raw:
                entries = []
                for tok in raw.split():
                    idx_s, _, fr_s = tok.partition("=")
                    idx = int(idx_s)
                    if fr_s not in fraction_of:
                        fraction_of[fr_s] = _fraction(fr_s or "1")
                    entries.append((idx, fraction_of[fr_s]))
                    items.add(idx)
                bins.append(entries)
            packing: Union[Packing, FractionalPacking] = FractionalPacking.from_bins(
                bins, items
            )
        elif kind == "integral":
            ibins = [[int(tok) for tok in raw.split()] for raw in bins_raw]
            for b in ibins:
                items.update(b)
            packing = Packing.from_bins(ibins, items)
        else:
            raise ParseError(f"unknown solution kind {kind!r}")
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad bin line: {exc}") from exc
    return {
        "packing": packing,
        "digest": digest,
        "algorithm": algorithm,
        "cost_spec": cost_spec,
        "cost": cost,
    }
