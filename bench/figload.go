package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ringmesh/internal/exp"
)

// figPoints is how many sweep points each regenerated figure holds
// (the series lengths of results/figNN.csv).
var figPoints = []struct {
	id     string
	points int
}{{"fig11", 36}, {"fig16", 51}, {"fig19", 42}}

// figSpec is the sweep schedule of the measured phase: the paper's
// sweeps at a shortened per-point schedule, two point workers, serial
// engine (on two cores engine workers and sweep workers would compete).
func figSpec(seed uint64) exp.Spec {
	spec := exp.DefaultSpec()
	spec.Seed = seed
	spec.Run.WarmupCycles, spec.Run.BatchCycles, spec.Run.Batches = 250, 250, 3
	spec.Workers, spec.EngineWorkers = 2, 1
	return spec
}

// figLoad regenerates fig11, fig16 and fig19 round after round. One op
// is one sweep point; one latency sample is a round's wall time divided
// by its 129 points (the three figures differ in cost per point, so a
// sample per figure would have three modes), and one block is a round.
type figLoad struct {
	env  env
	exps []exp.Experiment
}

func newFigLoad(e env) *figLoad { return &figLoad{env: e} }

func (w *figLoad) setup() error {
	w.exps = nil
	for _, f := range figPoints {
		e, ok := exp.ByID(f.id)
		if !ok {
			return fmt.Errorf("experiment %s not registered", f.id)
		}
		w.exps = append(w.exps, e)
	}
	// One figure, untimed, so the heap is grown before the first round.
	_, err := w.exps[0].Run(figSpec(w.env.seed))
	return err
}

// runFigure regenerates one figure and returns its CSV, its point
// count and the PM-cycles it simulated.
func runFigure(e exp.Experiment, spec exp.Spec) (csv []byte, points int, pmcycles float64, err error) {
	out, err := e.Run(spec)
	if err != nil {
		return nil, 0, 0, err
	}
	cycles := float64(spec.Run.WarmupCycles + spec.Run.BatchCycles*int64(spec.Run.Batches))
	for _, s := range out.Series {
		points += len(s.Points)
		for _, p := range s.Points {
			pmcycles += p.X * cycles // X is the node count in these figures
		}
	}
	var buf bytes.Buffer
	if err := exp.WriteCSV(&buf, out); err != nil {
		return nil, 0, 0, err
	}
	return buf.Bytes(), points, pmcycles, nil
}

func (w *figLoad) measure(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{}
	spec := figSpec(w.env.seed)
	first := map[string]string{}
	k := m.startMeter()
	defer k.finish()
	for round := 0; time.Since(k.start) < d; round++ {
		op := tr.begin("op", 0, round, 0)
		t, before := time.Now(), m.attempted
		for i, e := range w.exps {
			want := figPoints[i].points
			sp := tr.begin("exp.Run", op, round, 0)
			csv, points, pmc, err := runFigure(e, spec)
			tr.end(sp)
			m.attempted += want
			if err != nil {
				m.failN(want, "%s: %v", e.ID, err)
				continue
			}
			m.pmcycles += pmc
			sum := digest(string(csv))
			if points != want {
				m.failN(want, "%s: %d points, want %d", e.ID, points, want)
			} else if prev, ok := first[e.ID]; ok && prev != sum {
				// Same seed, same schedule: every round must reproduce
				// the first round's CSV byte for byte.
				m.failN(want, "%s: round %d CSV differs from round 0", e.ID, round)
			}
			if round == 0 {
				first[e.ID] = sum
				m.output(e.ID, sum)
			}
		}
		m.latencies = append(m.latencies, ms(time.Since(t))/float64(m.attempted-before))
		tr.end(op)
		k.cut()
	}
	return m, nil
}

func (w *figLoad) close() {}

// verifyFigures regenerates the three figures at the paper-fidelity
// schedule and seed and compares each CSV byte for byte with the
// committed results/figNN.csv. It is a correctness check only (about
// twenty seconds, untimed), run by -all at the pinned seed.
func verifyFigures(resultsDir string) error {
	spec := exp.DefaultSpec()
	spec.Workers, spec.EngineWorkers = 2, 1
	for _, f := range figPoints {
		e, ok := exp.ByID(f.id)
		if !ok {
			return fmt.Errorf("experiment %s not registered", f.id)
		}
		got, _, _, err := runFigure(e, spec)
		if err != nil {
			return fmt.Errorf("%s: %w", f.id, err)
		}
		want, err := os.ReadFile(filepath.Join(resultsDir, f.id+".csv"))
		if err != nil {
			return err
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("%s: regenerated CSV differs from %s/%s.csv:\n%s",
				f.id, resultsDir, f.id, firstDiffLine(want, got))
		}
	}
	return nil
}

// firstDiffLine renders the first differing line of two documents as a
// -/+ pair.
func firstDiffLine(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var a, b []byte
		if i < len(wl) {
			a = wl[i]
		}
		if i < len(gl) {
			b = gl[i]
		}
		if !bytes.Equal(a, b) {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, a, b)
		}
	}
	return "(no differing line)"
}
