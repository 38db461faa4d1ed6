"""Plain-text table rendering in the style of the paper's tables."""


def format_table(headers, rows, title=None):
    """Render a list-of-lists as an aligned text table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    normalized = []
    for row in rows:
        cells = [_fmt(cell) for cell in row]
        if len(cells) != columns:
            raise ValueError("row has %d cells, expected %d" % (len(cells), columns))
        widths = [max(w, len(c)) for w, c in zip(widths, cells)]
        normalized.append(cells)
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for cells in normalized:
        lines.append(
            "  ".join(c.rjust(w) if i else c.ljust(w)
                      for i, (c, w) in enumerate(zip(cells, widths)))
        )
    return "\n".join(lines)


def _fmt(cell):
    if cell is None:
        return "NA"
    if isinstance(cell, float):
        return "%.2f" % cell
    return str(cell)
