"""Brute-force oracles that the fast routines of ``dispersim`` are tested
against. They trade speed for obviousness and are never used by the
package itself.
"""

from dispersim.grid import Cell, Region, bfs_distances_cells


def articulation_points(r: Region) -> set[Cell]:
    """Cells whose removal disconnects the region: one BFS per cell."""
    out = set()
    if len(r.cells) <= 1:
        return out
    for v in r.cells:
        rest = set(r.cells)
        rest.remove(v)
        seed = next(iter(rest))
        if len(bfs_distances_cells(rest, seed)) != len(rest):
            out.add(v)
    return out
