package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
)

// The disk cache's entries and the journal's records are the same
// self-checking frame,
//
//	<version> <sha256(payload) hex> <len(payload)><sep><payload>
//
// differing only in the version tag and in sep: a newline for an entry
// (a header line, then the payload to the end of the file) and a space
// for a record (one line; the journal appends the terminating newline).

// sealFrame returns the frame for payload in one allocation: the
// version, the payload, and room for two spaces, 64 hex digits, a
// length, sep and the journal's newline.
func sealFrame(version string, sep byte, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	dst := make([]byte, 0, len(version)+len(payload)+90)
	dst = append(dst, version...)
	dst = append(dst, ' ')
	dst = hex.AppendEncode(dst, sum[:])
	dst = strconv.AppendInt(append(dst, ' '), int64(len(payload)), 10)
	dst = append(dst, sep)
	return append(dst, payload...)
}

// openFrame verifies a frame's version, length and checksum and
// returns its payload (a subslice of raw). It must reject arbitrary
// corruption with an error — never panic — and is fuzzed to hold that
// contract.
func openFrame(raw []byte, version string, sep byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(raw, []byte(version+" "))
	if !ok {
		return nil, fmt.Errorf("format version is not %q", version)
	}
	sumHex, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return nil, fmt.Errorf("missing checksum field")
	}
	lenField, payload, ok := bytes.Cut(rest, []byte{sep})
	if !ok {
		return nil, fmt.Errorf("missing length field")
	}
	n, err := strconv.Atoi(string(lenField))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad length field %q", lenField)
	}
	if n != len(payload) {
		return nil, fmt.Errorf("payload %d bytes, header says %d (torn write?)", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if got := hex.EncodeToString(sum[:]); got != string(sumHex) {
		return nil, fmt.Errorf("checksum mismatch (stored %.8s, computed %.8s)", sumHex, got)
	}
	return payload, nil
}

// publishAtomic makes data the content of path: a temp file beside it
// (so the rename cannot cross a file system), write, fsync, close,
// rename. The rename is what publishes; everything before it can fail,
// or the process can die, without a reader ever seeing a torn file
// under the live name.
func publishAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = os.Remove(tmp.Name()) // best effort; the error that matters is err
	}
	return err
}
