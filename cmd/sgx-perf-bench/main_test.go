package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONMergesEachExperiment runs the two experiments that write
// -json into one file and requires both results to survive, each under
// its experiment's name. Switchless runs at its default size: shorter
// runs sometimes end before the scheduler settles, which fails the
// experiment's convergence check before anything is written.
func TestJSONMergesEachExperiment(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	if err := run([]string{"-exp", "switchless", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "live", "-duration", "100ms", "-interval", "20ms", "-json", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"switchless", "live"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("results file lacks %q", key)
		}
	}
	if len(doc) != 2 {
		t.Errorf("results file has %d top-level keys, want 2 (switchless, live)", len(doc))
	}
	var live struct {
		SchemaVersion int             `json:"schema_version"`
		Final         json.RawMessage `json:"final"`
	}
	if err := json.Unmarshal(doc["live"], &live); err != nil {
		t.Fatal(err)
	}
	if live.SchemaVersion == 0 || len(live.Final) == 0 {
		t.Errorf("live result lacks its api/v1 fields: %s", doc["live"])
	}
}

// TestRetiredExperimentsUnknown pins that the toolchain-timing
// experiments are gone: bench/ and the root Go benchmarks time that
// work.
func TestRetiredExperimentsUnknown(t *testing.T) {
	for _, name := range []string{"analyze", "serve", "outofcore", "contention"} {
		err := run([]string{"-exp", name}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("-exp %s: got %v, want an unknown experiment error", name, err)
		}
	}
}
