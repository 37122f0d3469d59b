"""Regenerate the four bundled figure datasets as CSV files.

Writes one file per (family, wedge, q_r[, F]) series into ./figure_data,
ready for any plotting tool.  Rerunning produces byte-identical files.
"""

from pathlib import Path

from unruh_lab import FigurePreset, figure_preset, write_figure_set

OUT_DIR = Path("figure_data")

written = write_figure_set(FigurePreset, OUT_DIR)
for figure in FigurePreset:
    count = sum(path.name.startswith(f"{figure.value}_") for path in written)
    families = ", ".join(f.value for f in figure_preset(figure).families)
    print(f"{figure.value}: {count} series files ({families})")

print(f"\nall files in {OUT_DIR.resolve()}")
print("columns: family,region,gamma,q_r,alpha,f,s_a,s_b,s_ab,mutual_info,cond_entropy,ssa_value")
