package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"ringmesh"
	"ringmesh/internal/metrics"
)

// diskFormatVersion tags the on-disk entry format. It is independent
// of the cache-key version (which is part of the key itself): bumping
// it invalidates every stored file regardless of key, which is the
// right lever when the file layout — not the simulation semantics —
// changes. A version-mismatched file is quarantined, never parsed.
const diskFormatVersion = "ringmeshd-disk-v1"

// entrySuffix names result files; everything else in the directory
// (temp files, the quarantine subdir) is ignored by lookups.
const entrySuffix = ".rmr"

// quarantineDir is the subdirectory corrupt entries are moved into
// for post-mortem inspection instead of being served or silently
// deleted.
const quarantineDir = "quarantine"

// diskStore is the durable tier under the in-memory result cache: one
// file per cache key, written via temp-file + atomic rename so a
// kill -9 mid-write can never leave a torn entry under a live name —
// readers see either the complete old file or the complete new one,
// never a prefix.
//
// On-disk format (version, checksum and length in a single header
// line, then the JSON payload; the frame of frame.go with a newline
// separator):
//
//	ringmeshd-disk-v1 <sha256(payload) hex> <len(payload)>\n
//	<payload: ringmesh.Result as JSON>
//
// Every load re-verifies the header: a wrong version, length or
// checksum — a torn write that somehow got the entry name, a
// bit-flip, an operator editing files — quarantines the file and
// reports a miss, so the result is recomputed rather than served
// wrong. JSON round-trips float64 exactly (shortest-roundtrip
// encoding), so a replayed Result is bit-identical to the stored one.
//
// The store is shared-safe: N daemon replicas can mount one
// directory. Writers never collide destructively (temp names are
// unique, renames are atomic, and two writers racing on one key are
// writing identical bytes — results are deterministic), and a reader
// racing a quarantine rename simply misses.
type diskStore struct {
	dir string
	log *slog.Logger

	hits        *metrics.Counter
	misses      *metrics.Counter
	writes      *metrics.Counter
	quarantined *metrics.Counter
	ioErrors    *metrics.Counter
}

// newDiskStore opens (creating if needed) the store rooted at dir and
// registers its instruments in reg (nil disables instrumentation).
func newDiskStore(dir string, reg *metrics.Registry, log *slog.Logger) (*diskStore, error) {
	if err := os.MkdirAll(filepath.Join(dir, quarantineDir), 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk cache at %s: %w", dir, err)
	}
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &diskStore{
		dir:         dir,
		log:         log,
		hits:        reg.Counter("ringmeshd_disk_cache_hits_total", metrics.Labels{}),
		misses:      reg.Counter("ringmeshd_disk_cache_misses_total", metrics.Labels{}),
		writes:      reg.Counter("ringmeshd_disk_cache_writes_total", metrics.Labels{}),
		quarantined: reg.Counter("ringmeshd_disk_cache_quarantined_total", metrics.Labels{}),
		ioErrors:    reg.Counter("ringmeshd_disk_cache_io_errors_total", metrics.Labels{}),
	}, nil
}

// path returns the entry file for a cache key. Keys are hex digests
// (ringmesh.CacheKey), so they are always safe file names; the suffix
// keeps temp files and foreign droppings out of the namespace.
func (d *diskStore) path(key string) string {
	return filepath.Join(d.dir, key+entrySuffix)
}

// load returns the stored result for key, verifying the header before
// trusting a byte of payload. Corrupt or version-mismatched files are
// quarantined and reported as misses so the caller recomputes.
func (d *diskStore) load(key string) (ringmesh.Result, bool) {
	raw, err := os.ReadFile(d.path(key))
	if err != nil {
		if !os.IsNotExist(err) {
			d.ioErrors.Inc()
			d.log.Warn("disk cache read failed", "key", shortKey(key), "err", err)
		}
		d.misses.Inc()
		return ringmesh.Result{}, false
	}
	res, err := decodeEntry(raw)
	if err != nil {
		d.quarantine(key, err)
		d.misses.Inc()
		return ringmesh.Result{}, false
	}
	d.hits.Inc()
	return res, true
}

// store durably writes a result under key (marshal, publishAtomic).
// Failures are counted and logged but never propagated — the disk tier
// is an accelerator, and a write that did not land only costs a future
// recomputation.
func (d *diskStore) store(key string, res ringmesh.Result) {
	payload, err := json.Marshal(res)
	if err == nil {
		err = publishAtomic(d.path(key), encodeEntry(payload))
	}
	if err != nil {
		d.ioErrors.Inc()
		d.log.Warn("disk cache write failed", "key", shortKey(key), "err", err)
		return
	}
	d.writes.Inc()
}

// quarantine moves a bad entry into the quarantine subdirectory so it
// can be inspected post-mortem but never served. Losing the rename
// race to another replica is fine — the file is gone either way.
func (d *diskStore) quarantine(key string, reason error) {
	d.quarantined.Inc()
	dst := filepath.Join(d.dir, quarantineDir, key+entrySuffix)
	if err := os.Rename(d.path(key), dst); err != nil && !os.IsNotExist(err) {
		// Could not move it aside (e.g. read-only mount): remove it so
		// it cannot be re-read forever, and surface the I/O trouble.
		d.ioErrors.Inc()
		_ = os.Remove(d.path(key))
	}
	d.log.Warn("disk cache entry quarantined", "key", shortKey(key), "reason", reason)
}

// encodeEntry renders the on-disk bytes for a payload.
func encodeEntry(payload []byte) []byte {
	return sealFrame(diskFormatVersion, '\n', payload)
}

// decodeEntry verifies an entry's header (version, length, checksum)
// and unmarshals the payload. Any mismatch is an error — the caller
// quarantines.
func decodeEntry(raw []byte) (ringmesh.Result, error) {
	var res ringmesh.Result
	payload, err := openFrame(raw, diskFormatVersion, '\n')
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(payload, &res); err != nil {
		return res, fmt.Errorf("payload decode: %w", err)
	}
	return res, nil
}
