"""CSV text, the one formatter of every table the package writes.

RFC-4180 quoting, LF line endings, floats serialized with repr so values
round-trip exactly, bools as 0/1, everything else with str.
"""

from __future__ import annotations


def _format_field(value) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(float(value))  # canonical shortest round-trip form
    text = str(value)
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


# _format_field of the exact types most fields have, without its checks;
# subclasses, numpy scalars, str and None take _format_field itself
_EXACT = {float: float.__repr__, int: int.__repr__, bool: ("0", "1").__getitem__}


def _csv_line(fields) -> str:
    return ",".join([_EXACT.get(type(value), _format_field)(value) for value in fields])


def csv_table(header, rows) -> str:
    """The header line and one line per row, each ending in LF."""
    lines = [_csv_line(header)]
    lines.extend(_csv_line(row) for row in rows)
    return "\n".join(lines) + "\n"
