"""Deterministic SVG rendering of certificates.

Exact coordinates are converted to floats for display only; byte-stable
output (fixed formatting, no timestamps) so renders can be diffed.
"""

from __future__ import annotations

from .certificate import Certificate

_SCALE = 40.0
_MARGIN = 20.0
_FILL_DIRECT = "#9ecae1"
_FILL_MIRROR = "#fdae6b"
_STROKE = "#333333"


def render_svg(cert: Certificate, path: str) -> None:
    """Write one polygon per placement; mirrored copies get a distinct fill."""
    if cert.n < 1:
        raise ValueError("empty certificate")
    corners = cert.target.vertices()
    xs = [float(p.x) for p in corners]
    ys = [float(p.y) for p in corners]
    width = (max(xs) - min(xs)) * _SCALE + 2 * _MARGIN
    height = (max(ys) - min(ys)) * _SCALE + 2 * _MARGIN
    x0, y1 = min(xs), max(ys)

    def fmt(p) -> str:
        # flip y so the target sits upright
        x = (float(p.x) - x0) * _SCALE + _MARGIN
        y = (y1 - float(p.y)) * _SCALE + _MARGIN
        return f"{x:.4f},{y:.4f}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.4f} {height:.4f}">',
        f'<polygon points="{" ".join(fmt(p) for p in corners)}" '
        f'fill="none" stroke="{_STROKE}" stroke-width="2"/>',
    ]
    for placement in cert.placements:
        fill = _FILL_MIRROR if placement.mirrored else _FILL_DIRECT
        pts = " ".join(fmt(v) for v in placement.vertices)
        lines.append(
            f'<polygon points="{pts}" fill="{fill}" stroke="{_STROKE}" stroke-width="1"/>'
        )
    lines.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
