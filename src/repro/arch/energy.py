"""The bit-energy model of Sec. 3.2 (Eq. 1-2).

``E_bit = E_Sbit + E_Lbit`` — the energy to push one bit through one
router's switch fabric plus one inter-tile link.  Sending a bit across a
route that traverses ``n_hops`` routers costs

    ``E = n_hops * E_Sbit + (n_hops - 1) * E_Lbit``        (Eq. 2)

which on a 2D mesh with minimal routing is a function of the Manhattan
distance only (``n_hops = distance + 1``).  Buffering energy ``E_Bbit``
is deliberately excluded, as registers-as-buffers make it small and
congestion-coupled (the paper's argument for this abstraction level).

Default constants are representative of the 0.18 um figures reported by
Ye et al. [12] — only the ratio ``E_Sbit : E_Lbit`` shapes the results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchitectureError

#: Default switch energy per bit (nJ) — ~0.98 pJ/bit scaled to task volumes.
DEFAULT_E_SBIT = 0.00098
#: Default link energy per bit (nJ) for a ~2 mm inter-tile wire.
DEFAULT_E_LBIT = 0.00039


@dataclass(frozen=True)
class BitEnergyModel:
    """Energy per bit across switches and links.

    Attributes:
        e_sbit: energy (nJ) for one bit through one router switch.
        e_lbit: energy (nJ) for one bit across one inter-tile link.
    """

    e_sbit: float = DEFAULT_E_SBIT
    e_lbit: float = DEFAULT_E_LBIT

    def __post_init__(self) -> None:
        if self.e_sbit < 0 or self.e_lbit < 0:
            raise ArchitectureError("bit energies must be non-negative")

    def energy_per_bit(self, n_hops: int) -> float:
        """Eq. 2 for a route traversing ``n_hops`` routers.

        ``n_hops == 1`` means source and destination share a tile; the
        transfer stays inside the tile and costs no network energy.
        """
        if n_hops < 1:
            raise ArchitectureError(f"n_hops must be >= 1, got {n_hops}")
        if n_hops == 1:
            return 0.0
        return n_hops * self.e_sbit + (n_hops - 1) * self.e_lbit
