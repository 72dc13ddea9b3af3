"""The character-by-character tokenizer that ``delpezzo.sextic._tokenize``
replaced with one compiled regex, kept as an independent oracle for it.

It scans with the ``str`` predicates the grammar is defined by
(``isspace``, ``isdecimal``, ``isalpha``, ``isalnum``) and returns the same
``(kind, value, position)`` tuples, or raises the same errors at the same
positions.
"""

from fractions import Fraction

from delpezzo.errors import EquationError, UnknownVariableError

VARIABLES = {"x", "y", "z", "w"}
OPERATORS = set("+-*^()=")


def _int_literal(text, start, end):
    try:
        return int(text[start:end])
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise EquationError(f"number literal too long ({end - start} digits)", start) from None


def tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in OPERATORS:
            tokens.append((ch, None, i))
            i += 1
            continue
        if ch.isdecimal():  # the digits int() accepts; str.isdigit takes more
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            value = _int_literal(text, start, i)
            if i < n and text[i] == "/" and i + 1 < n and text[i + 1].isdecimal():
                i += 1
                dstart = i
                while i < n and text[i].isdecimal():
                    i += 1
                denominator = _int_literal(text, dstart, i)
                if not denominator:
                    raise EquationError("zero denominator", dstart)
                value = Fraction(value, denominator)
            tokens.append(("num", value, start))
            continue
        if ch.isalpha():
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            name = text[start:i]
            if name not in VARIABLES:
                raise UnknownVariableError(f"unknown variable '{name}'", start)
            tokens.append(("name", name, start))
            continue
        raise EquationError(f"unexpected character '{ch}'", i)
    tokens.append(("end", None, n))
    return tokens
