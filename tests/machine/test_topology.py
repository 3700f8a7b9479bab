"""Tests for machine topology and thread placement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.topology import Topology


class TestTopology:
    def test_opteron_like_counts(self):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        assert topo.total_chips == 8
        assert topo.total_cores == 48
        assert topo.total_threads == 48
        assert topo.threads_per_socket == 12

    def test_smt_multiplies_threads(self):
        topo = Topology(sockets=1, chips_per_socket=1, cores_per_chip=4, smt=2)
        assert topo.total_cores == 4
        assert topo.total_threads == 8

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            Topology(sockets=0, chips_per_socket=1, cores_per_chip=1)

    def test_core_order_is_socket_first(self):
        topo = Topology(sockets=2, chips_per_socket=1, cores_per_chip=2)
        order = list(topo.core_order())
        assert order[0][0] == 0 and order[1][0] == 0
        assert order[2][0] == 1

    def test_core_counts_start_at_one(self):
        topo = Topology(sockets=1, chips_per_socket=1, cores_per_chip=8)
        counts = topo.core_counts(step=2)
        assert counts[0] == 1
        assert counts[-1] == 8


class TestPlacement:
    def test_single_thread_single_socket(self):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        placement = topo.place(1)
        assert placement.sockets_used == 1
        assert placement.chips_used == 1
        assert not placement.crosses_socket

    def test_one_socket_worth_of_threads_stays_on_socket(self):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        placement = topo.place(12)
        assert placement.sockets_used == 1
        assert placement.chips_used == 2  # the Opteron MCM effect

    def test_thirteen_threads_spill_to_second_socket(self):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        placement = topo.place(13)
        assert placement.sockets_used == 2
        assert placement.crosses_socket

    def test_full_machine(self):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        placement = topo.place(48)
        assert placement.sockets_used == 4
        assert placement.chips_used == 8
        assert placement.max_threads_per_chip == 6

    def test_too_many_threads_rejected(self):
        topo = Topology(sockets=1, chips_per_socket=1, cores_per_chip=4)
        with pytest.raises(ValueError):
            topo.place(5)

    def test_zero_threads_rejected(self):
        topo = Topology(sockets=1, chips_per_socket=1, cores_per_chip=4)
        with pytest.raises(ValueError):
            topo.place(0)

    @given(threads=st.integers(min_value=1, max_value=48))
    @settings(max_examples=48, deadline=None)
    def test_placement_conserves_threads(self, threads):
        topo = Topology(sockets=4, chips_per_socket=2, cores_per_chip=6)
        placement = topo.place(threads)
        assert int(np.sum(placement.threads_per_chip)) == threads
        assert int(np.sum(placement.threads_per_socket)) == threads
        assert placement.sockets_used == int(np.ceil(threads / topo.threads_per_socket))

    @given(
        sockets=st.integers(1, 4),
        chips=st.integers(1, 3),
        cores=st.integers(1, 6),
        smt=st.integers(1, 2),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_closed_form_matches_core_order_walk(self, sockets, chips, cores, smt, data):
        topo = Topology(sockets=sockets, chips_per_socket=chips, cores_per_chip=cores, smt=smt)
        threads = data.draw(st.integers(1, topo.total_threads))
        per_chip: dict[tuple[int, int], int] = {}
        per_socket: dict[int, int] = {}
        for socket, chip, _ctx in list(topo.core_order())[:threads]:
            per_chip[socket, chip] = per_chip.get((socket, chip), 0) + 1
            per_socket[socket] = per_socket.get(socket, 0) + 1
        placement = topo.place(threads)
        assert placement.threads_per_chip == tuple(per_chip.values())
        assert placement.threads_per_socket == tuple(per_socket.values())
        assert placement.chips_used == len(per_chip)
        assert placement.sockets_used == len(per_socket)
        assert placement.max_threads_per_chip == max(per_chip.values())
        assert placement.max_threads_per_socket == max(per_socket.values())
        assert all(type(n) is int for n in placement.threads_per_chip)
