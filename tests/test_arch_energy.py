"""Tests for the Eq. 1-2 bit-energy model."""

import pytest

from repro.arch.energy import BitEnergyModel
from repro.errors import ArchitectureError


class TestEnergyPerBit:
    def test_eq2(self):
        model = BitEnergyModel(e_sbit=2.0, e_lbit=1.0)
        # n_hops routers, n_hops - 1 links.
        assert model.energy_per_bit(2) == 2 * 2.0 + 1 * 1.0
        assert model.energy_per_bit(4) == 4 * 2.0 + 3 * 1.0

    def test_local_transfer_free(self):
        model = BitEnergyModel(e_sbit=2.0, e_lbit=1.0)
        assert model.energy_per_bit(1) == 0.0

    def test_monotone_in_distance(self):
        model = BitEnergyModel()
        values = [model.energy_per_bit(h) for h in range(1, 8)]
        assert values == sorted(values)
        assert values[1] > values[0]

    def test_invalid_hops(self):
        with pytest.raises(ArchitectureError):
            BitEnergyModel().energy_per_bit(0)

    def test_negative_constants_rejected(self):
        with pytest.raises(ArchitectureError):
            BitEnergyModel(e_sbit=-1.0)


class TestTransactionEnergy:
    def test_difference_between_distances_is_sbit_plus_lbit(self):
        # Adding one hop adds exactly E_sbit + E_lbit per bit (Eq. 1).
        model = BitEnergyModel(e_sbit=0.7, e_lbit=0.3)
        assert model.energy_per_bit(5) - model.energy_per_bit(4) == pytest.approx(1.0)
