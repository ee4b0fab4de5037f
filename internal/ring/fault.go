package ring

// Fault injection for the ring family (Model.ApplyFaultPlan). Event
// node indices address n.stations in build order — the same
// deterministic DFS order the builders append them in, so NICs and
// IRI stations of both switching techniques map identically for one
// topology. A ring station has a single output port, so every event
// must use Port 0; event times are PM cycles and are scaled by
// TicksPerCycle before scheduling.
//
// Fault semantics:
//
//   - LinkStutter (factor 0): the station's output link is dead — a
//     wormhole station stages nothing, a slotted station neither
//     extracts nor injects while slots ride past.
//   - NodeSlowdown / PortDegrade (factor k >= 2): the station acts on
//     every k-th of its clock cycles (wormhole) or slot steps
//     (slotted) and sits out the rest.
//
// A later event on the same station overwrites an earlier one (the
// schedule is sorted by start time). Expired fault state clears
// itself at the next check, returning the station to the one-nil-check
// steady state.

import "ringmesh/internal/fault"

// stFault is the installed fault state of one station.
type stFault struct {
	until  int64 // first engine tick the fault no longer applies
	factor int64 // 0 = link dead; k >= 2 = act every k-th opportunity
}

// fltBlocked reports whether the fault suppresses this wormhole
// station's output this tick, clearing expired state as a side
// effect. Only called with s.flt non-nil.
func (s *station) fltBlocked(now int64) bool {
	if now >= s.flt.until {
		s.flt = nil
		return false
	}
	if s.flt.factor == 0 {
		return true
	}
	// now/period is this station's cycle index (compute only runs on
	// ticks divisible by its ring's period), so the station acts on
	// every factor-th of its own cycles regardless of clocking.
	return (now/s.ring.period)%s.flt.factor != 0
}

// fltBlockedSlot is the slotted-station equivalent, keyed on the
// ring's slot-step index rather than the tick (slots advance every
// slotPeriod ticks). Only called with s.flt non-nil.
func (s *sstation) fltBlockedSlot(now, stepIdx int64) bool {
	if now >= s.flt.until {
		s.flt = nil
		return false
	}
	if s.flt.factor == 0 {
		return true
	}
	return stepIdx%s.flt.factor != 0
}

// ApplyFaultPlan implements network.Model for the wormhole
// network. Call once, after construction and before the first tick.
func (n *Network) ApplyFaultPlan(p *fault.Plan) (err error) {
	n.faults, err = faultDriver(p, len(n.stations), n.cfg.TicksPerCycle(),
		func(i int, f *stFault) { n.stations[i].flt = f })
	return err
}

// ApplyFaultPlan implements network.Model for the slotted network.
func (n *SlottedNetwork) ApplyFaultPlan(p *fault.Plan) (err error) {
	n.faults, err = faultDriver(p, len(n.stations), n.cfg.TicksPerCycle(),
		func(i int, f *stFault) { n.stations[i].flt = f })
	return err
}

// faultDriver materializes p over a network's stations and schedules
// each event's fault state, scaled to engine ticks by tpc; install
// puts a fault on the station with that build-order index.
func faultDriver(p *fault.Plan, stations int, tpc int64, install func(i int, f *stFault)) (*fault.Driver, error) {
	events, err := p.Materialize(stations, 1)
	if err != nil {
		return nil, err
	}
	sched := make([]fault.Scheduled, 0, len(events))
	for _, ev := range events {
		i, f := ev.Node, &stFault{until: ev.End() * tpc, factor: fault.SlowFactor(ev)}
		sched = append(sched, fault.Scheduled{
			At:    ev.Start * tpc,
			Apply: func() { install(i, f) },
		})
	}
	return fault.NewDriver(sched), nil
}
