package ring

// Fault targets of the ring family: one per station, addressed by its
// index in n.stations — the build order, the same deterministic DFS in
// which both switching techniques append NICs and IRI stations — each
// with a single link output. DESIGN §6 holds what each kind does.

import "ringmesh/internal/fault"

// FaultTargets implements network.Model for the wormhole network.
func (n *Network) FaultTargets() fault.Targets {
	t := fault.Targets{Links: 1}
	for i := range n.stations {
		t.Slots = append(t.Slots, &n.stations[i].flt)
	}
	return t
}

// FaultTargets implements network.Model for the slotted network.
func (n *SlottedNetwork) FaultTargets() fault.Targets {
	t := fault.Targets{Links: 1}
	for _, st := range n.stations {
		t.Slots = append(t.Slots, &st.flt)
	}
	return t
}
