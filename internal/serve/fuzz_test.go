package serve

import (
	"bytes"
	"testing"
)

// fuzzSeedLines builds real encoded records (and mutations of them) so
// the fuzzer starts inside the interesting part of the input space.
func fuzzSeedLines(f *testing.F) [][]byte {
	f.Helper()
	cfg := testConfig()
	opt := *testOptions()
	var lines [][]byte
	for _, rec := range []journalRecord{
		{Op: opAccepted, ID: "j000001", Kind: kindRun, Config: &cfg, Options: &opt},
		{Op: opAccepted, ID: "j000002", Kind: kindSweep, Config: &cfg, Options: &opt, Sizes: []int{4, 16}},
		{Op: opAccepted, ID: "j000003", Kind: kindBatch, Entries: []batchEntry{{Config: cfg, Options: opt}}},
		{Op: opRunning, ID: "j000001"},
		{Op: opDone, ID: "j000001"},
		{Op: opFailed, ID: "j000002"},
	} {
		line, err := encodeRecord(rec)
		if err != nil {
			f.Fatal(err)
		}
		lines = append(lines, bytes.TrimSuffix(line, []byte("\n")))
	}
	return lines
}

// FuzzDecodeRecord holds the WAL decoder to its contract: arbitrary
// bytes — torn writes, bit flips, hostile JSON — must yield a record
// or an error, never a panic. Any line it does accept must survive a
// re-encode/re-decode round trip, so replay and compaction agree on
// what the record says. The disk-cache entry is the same frame with
// another version and separator, so every input is also fed to its
// decoder, under the same never-panic contract.
func FuzzDecodeRecord(f *testing.F) {
	for _, line := range fuzzSeedLines(f) {
		f.Add(line)
		f.Add(line[:len(line)/2])                                       // torn write
		f.Add(append([]byte("x"), line...))                             // shifted framing
		f.Add(bytes.ToUpper(line))                                      // checksum mismatch
		f.Add(bytes.ReplaceAll(line, []byte(`"op"`), []byte(`"oops"`))) // schema drift
	}
	f.Add([]byte(nil))
	f.Add([]byte(journalVersion + "   "))
	f.Add([]byte(journalVersion + " zz -1 {}"))
	entry := encodeEntry([]byte(`{"latency":1}`))
	f.Add(entry)
	f.Add(entry[:len(entry)-3])
	f.Add([]byte(diskFormatVersion + " zz -1\n{}"))
	f.Fuzz(func(t *testing.T, line []byte) {
		_, _ = decodeEntry(line)       // must never panic
		rec, err := decodeRecord(line) // must never panic
		if err != nil {
			return
		}
		reenc, err := encodeRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		rec2, err := decodeRecord(bytes.TrimSuffix(reenc, []byte("\n")))
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if rec2.Op != rec.Op || rec2.ID != rec.ID || rec2.Kind != rec.Kind {
			t.Fatalf("round trip drift: %+v -> %+v", rec, rec2)
		}
	})
}
