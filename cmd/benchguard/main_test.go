package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update stamps the file, merges rows recorded under the same
// fingerprint, and drops rows recorded under another.
func TestBaselineFingerprint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.txt")
	legacy := "# Baseline ns/op recorded by cmd/benchguard -update.\nBenchmarkOld 229.7\n"
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	stamp := func() string {
		body, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return stampOf(body)
	}
	if fp := stamp(); fp != "" {
		t.Fatalf("unstamped file reads fingerprint %q", fp)
	}
	for _, b := range []string{"BenchmarkA", "BenchmarkB"} {
		if err := writeBaseline(path, "box one", b, 10); err != nil {
			t.Fatal(err)
		}
	}
	if fp := stamp(); fp != "box one" {
		t.Fatalf("fingerprint %q, want %q", fp, "box one")
	}
	if _, err := readBaseline(path, "BenchmarkOld"); err == nil {
		t.Fatal("row from the unstamped file survived a re-record")
	}
	if v, err := readBaseline(path, "BenchmarkA"); err != nil || v != 10 {
		t.Fatalf("BenchmarkA = %v, %v: same-fingerprint rows must merge", v, err)
	}
	if err := writeBaseline(path, "box two", "BenchmarkB", 20); err != nil {
		t.Fatal(err)
	}
	if _, err := readBaseline(path, "BenchmarkA"); err == nil {
		t.Fatal("row recorded on box one survived a re-record on box two")
	}
	if fp := fingerprint(); !strings.Contains(fp, "cpus") || strings.Contains(fp, "\n") {
		t.Fatalf("odd fingerprint %q", fp)
	}
}

// ns/op is read wherever it sits on the line: the whole-system ticks
// report a PMcycles/op column after it, -benchmem two more, and a
// benchmark whose name merely starts with the guarded one is ignored.
func TestParseNsPerOp(t *testing.T) {
	for _, tc := range []struct {
		line string
		want float64
		ok   bool
	}{
		{"BenchmarkSimRing72-2   \t  300000\t      5136 ns/op\t        72.00 PMcycles/op", 5136, true},
		{"BenchmarkSimRing72-2 300000 5136 ns/op 72.00 PMcycles/op 76 B/op 1 allocs/op", 5136, true},
		{"BenchmarkSimRing72 2000 845.2 ns/op", 845.2, true},
		{"BenchmarkSimRing72LowLoad-2 300000 4000 ns/op 72.00 PMcycles/op", 0, false},
		{"ok  \tringmesh\t3.1s", 0, false},
	} {
		got, ok := parseNsPerOp(tc.line, "BenchmarkSimRing72")
		if ok != tc.ok || got != tc.want {
			t.Errorf("parseNsPerOp(%q) = %v, %v; want %v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}
