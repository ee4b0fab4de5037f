package ringmesh

import (
	"bytes"
	"encoding/json"
	"testing"
)

// fuzzMaxPMs bounds the systems FuzzConfig builds and steps, so one
// input costs milliseconds; larger geometries still go through every
// resolver.
const fuzzMaxPMs = 128

// FuzzConfig holds the facade to its contract over hostile input: any
// bytes that decode as a Config, strictly as the daemon decodes a
// request, get an answer or an error — never a panic — from CacheKey,
// CanonicalTopology and the analytic Estimate, and a valid system of at
// most fuzzMaxPMs PMs builds and steps 50 cycles. The seeds are the
// command line's pinned configurations (cmd/ringmesh/testdata/cli.golden)
// and the geometries, unknown fields and buffers the daemon must answer
// 400; a seed naming a field Config lacks stops at the decode.
func FuzzConfig(f *testing.F) {
	for _, seed := range []string{
		// cli.golden
		`{"network":"ring","topology":"2:4","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","nodes":16,"line_bytes":32,"buffer_flits":1,"workload":{"r":0.3,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"2:3:4","line_bytes":64,"double_speed_global":true,"mem_latency_cycles":20,"seed":9,"workers":2,"workload":{"r":1,"c":0.02,"t":2,"read_prob":0.5}}`,
		`{"network":"ring","nodes":12,"line_bytes":64,"slotted_switching":true,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"3:3:8","line_bytes":32,"fidelity":"analytic","workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","nodes":64,"line_bytes":128,"buffer_flits":1,"fidelity":"analytic","workload":{"r":1,"c":0.5,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"2:3","line_bytes":32,"trace":true,"trace_only_packet":5,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","topology":"3x3","line_bytes":32,"metrics":true,"metrics_interval_cycles":250,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"3:3:8","line_bytes":32,"seed":5,"unsafe_no_vc":true,"workload":{"r":1,"c":1,"t":16,"read_prob":0.7}}`,
		`{"network":"ring","topology":"3:3:8","line_bytes":32,"seed":6,"unsafe_no_vc":true,"workload":{"r":1,"c":1,"t":2,"read_prob":0.7}}`,
		`{"network":"torus","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","nodes":15,"line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","nodes":7,"line_bytes":128,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"2::3","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"2:4","line_bytes":32,"slotted_switching":true,"fidelity":"analytic","workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		// hostile geometries
		`{"network":"ring","topology":"1000:1000:8","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"3037000500:3037000500","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"65536:65536:65536:65536","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","topology":"300x300","line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","nodes":90000,"line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		// fields the facade does not have (fault plans are gone)
		`{"network":"ring","topology":"2:4","line_bytes":32,"fault_plan":"stutter@600+2000:node=0","workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"ring","topology":"2:4","line_bytes":32,"fault_plan":"rand:events=1000000000000,seed=1,horizon=10","workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		// hostile buffers
		`{"network":"mesh","topology":"2x2","buffer_flits":257,"line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
		`{"network":"mesh","topology":"2x2","buffer_flits":50000000,"line_bytes":32,"workload":{"r":1,"c":0.04,"t":4,"read_prob":0.7}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg Config
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&cfg) != nil {
			return
		}
		opt := QuickRunOptions()
		_, _ = CacheKey(cfg, opt) // must never panic
		_, pms, geomErr := CanonicalTopology(cfg)
		analytic := cfg
		analytic.Fidelity = "analytic"
		_, _ = Estimate(analytic, opt)
		if geomErr != nil || pms > fuzzMaxPMs {
			return
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			return
		}
		defer sys.Close()
		_ = sys.StepCycles(50)
	})
}
