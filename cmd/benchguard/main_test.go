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
