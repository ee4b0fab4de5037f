package main

import (
	"embed"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// pinnedSeed is the seed the digests under expected/ were recorded at.
const pinnedSeed = 42

//go:embed expected
var expectedFS embed.FS

func expectedFile(workload string) string {
	return fmt.Sprintf("%s.seed%d.txt", workload, pinnedSeed)
}

// loadExpected returns the pinned "key value" pairs for a workload
// (nil when none are recorded).
func loadExpected(workload string) (map[string]string, error) {
	data, err := expectedFS.ReadFile("expected/" + expectedFile(workload))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil // a workload without pins has no file
	}
	if err != nil {
		return nil, err
	}
	return parseExpected(string(data))
}

func parseExpected(data string) (map[string]string, error) {
	out := map[string]string{}
	for i, line := range strings.Split(data, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, value, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("expected line %d: want \"key value\", got %q", i+1, line)
		}
		out[key] = value
	}
	return out, nil
}

// diffExpected compares what a run produced with the pinned values on
// the keys the run covered, and renders every difference as a
// unified-diff-style pair of lines (empty when they agree).
func diffExpected(pinned, got map[string]string) []string {
	var out []string
	for _, k := range sortedKeys(got) {
		want, ok := pinned[k]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("+%s %s (not pinned)", k, got[k]))
		case want != got[k]:
			out = append(out, fmt.Sprintf("-%s %s", k, want), fmt.Sprintf("+%s %s", k, got[k]))
		}
	}
	return out
}

// writeExpected replaces a workload's pinned file under dir.
func writeExpected(dir, workload string, got map[string]string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s simulated outputs at seed %d; regenerate with -update-expected\n", workload, pinnedSeed)
	for _, k := range sortedKeys(got) {
		fmt.Fprintf(&b, "%s %s\n", k, got[k])
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, expectedFile(workload)), []byte(b.String()), 0o644)
}
