package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"ringmesh/internal/trace"
)

// TestTraceTextGolden pins the rendered trace of a short fixed-seed
// run of each model: Recorder.Write output must stay byte-identical
// however the models produce their "where" labels (the digests were
// recorded before the call sites stopped formatting a label per event).
func TestTraceTextGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func(rec *trace.Recorder) (*System, error)
		want  string
	}{
		{"ring", func(rec *trace.Recorder) (*System, error) {
			cfg := ringCfg("2:3", 32)
			cfg.Tracer = rec
			return NewSystem(cfg)
		}, "4f01cfb690978e0bc76ffff48c1e1624c72a9145e7e9fa9343ca494fbbad450f"},
		{"slotted", func(rec *trace.Recorder) (*System, error) {
			cfg := ringCfg("2:3", 32)
			cfg.Net.SlottedSwitching, cfg.Tracer = true, rec
			return NewSystem(cfg)
		}, "94b7eae8a0cb8d86ff17176dd827fe203b4d43bb89ab784b913094acb6331d3d"},
		{"mesh", func(rec *trace.Recorder) (*System, error) {
			cfg := meshCfg(3, 32, 4)
			cfg.Tracer = rec
			return NewSystem(cfg)
		}, "6d4a0d34d46e9dbf1579590a2ca78c22c9c5eed5189bf404abb09dc78eeb18c0"},
	}
	for _, tc := range cases {
		rec := &trace.Recorder{}
		sys, err := tc.build(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.StepCycles(600); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		if err := rec.Write(h); err != nil {
			t.Fatal(err)
		}
		if len(rec.Events()) < 100 {
			t.Fatalf("%s: only %d events traced", tc.name, len(rec.Events()))
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
			t.Errorf("%s: trace text digest %s, want %s (%d events)",
				tc.name, got, tc.want, len(rec.Events()))
		}
	}
}
