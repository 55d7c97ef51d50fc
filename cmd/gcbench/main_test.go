package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"

	"repro"
)

// TestBenchJSONKeepsEverySection: -experiment all -benchjson F writes F
// once, after the last experiment, with a section for every experiment
// that ran — not the last one's result over the others'.
func TestBenchJSONKeepsEverySection(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment once (about half a minute)")
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	if code := run([]string{"-experiment", "all", "-seeds", "1", "-benchjson", path}, io.Discard, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var secs map[string]struct{ Options, Rows json.RawMessage }
	if err := json.Unmarshal(data, &secs); err != nil {
		t.Fatal(err)
	}
	for _, e := range repro.Experiments {
		sec, ok := secs[e.Name]
		if !ok {
			t.Errorf("%s: no section", e.Name)
			continue
		}
		rows := e.NewRows()
		if err := repro.DecodeRecorded(sec.Rows, rows); err != nil {
			t.Errorf("%s rows: %v", e.Name, err)
		}
		if len(sec.Options) < len(`{"x":1}`) {
			t.Errorf("%s: options %q do not say how to rerun it", e.Name, sec.Options)
		}
	}
}

// TestBenchJSONNeedsGatedRows: asking for -benchjson when nothing
// selected has rows to write (a soak) is a usage error, before anything
// runs.
func TestBenchJSONNeedsGatedRows(t *testing.T) {
	for _, name := range []string{"soak"} {
		path := filepath.Join(t.TempDir(), "bench.json")
		var stderr bytes.Buffer
		if code := run([]string{"-experiment", name, "-benchjson", path}, io.Discard, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr %q)", name, code, stderr.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: %s was written", name, path)
		}
	}
}

// TestDocumentedExperimentsExist: every `gcbench -experiment <name>`
// the docs or the Makefile mention is a name gcbench accepts.
func TestDocumentedExperimentsExist(t *testing.T) {
	names, _ := experimentNames()
	names = append(names, "all")
	mention := regexp.MustCompile(`(?:^|[^a-z])-experiment[ =]([a-z0-9]+)`)
	for _, file := range []string{"EXPERIMENTS.md", "README.md", "Makefile"} {
		data, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatal(err)
		}
		found := mention.FindAllSubmatch(data, -1)
		if len(found) == 0 {
			t.Errorf("%s mentions no -experiment at all: has the pattern rotted?", file)
		}
		for _, m := range found {
			if !slices.Contains(names, string(m[1])) {
				t.Errorf("%s mentions -experiment %s, which gcbench does not have", file, m[1])
			}
		}
	}
}
