// Command benchgate is the CI benchmark regression gate. BENCH.json
// holds one section per gated experiment of the registry
// (repro.Experiments): the options the section was recorded with and,
// per row, its key and exact columns. The gate reruns each section
// in-process from its recorded options (or takes the sections of a
// -candidate file) and fails on any divergence in an exact column or on
// a baseline row the candidate lacks.
//
//	benchgate -baseline BENCH.json                    # rerun every section in-process
//	benchgate -baseline old.json -candidate new.json  # compare two files
//
// Which columns are compared is declared on the row types (struct tag
// gate:"key|exact|info", see repro.BenchResult), not here: one
// reflective comparator serves every section. Checks are named
// section/key=value[,key=value]/column. Info columns are neither
// recorded nor compared; for timing see cmd/perfbench.
//
// A machine-readable JSON report goes to stdout.
// Exit status: 0 pass, 1 regression, 2 usage or I/O error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strings"

	"repro"
)

// Check is one exact-column comparison in the report ("…/present" for a
// baseline row the candidate lacks: baseline 1, candidate 0).
type Check struct {
	Name      string `json:"name"`
	Baseline  any    `json:"baseline"`
	Candidate any    `json:"candidate"`
	Pass      bool   `json:"pass"`
}

// Report is the gate's machine-readable verdict.
type Report struct {
	Checks []Check `json:"checks"`
	Pass   bool    `json:"pass"`
}

// column is one gated field of a row type.
type column struct {
	name  string // the json name for key and exact columns, the field name for info
	role  string // "key" | "exact" | "info"
	index int
}

// columnsOf reads a row type's gate tags. Every exported field must
// declare its role, and only info columns may be hidden from JSON.
func columnsOf(row reflect.Type) ([]column, error) {
	var cols []column
	for i := 0; i < row.NumField(); i++ {
		f := row.Field(i)
		if !f.IsExported() {
			continue
		}
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		c := column{name: name, role: f.Tag.Get("gate"), index: i}
		switch c.role {
		case "key", "exact":
			if name == "" || name == "-" {
				return nil, fmt.Errorf("%s.%s: a %s column needs a json name", row, f.Name, c.role)
			}
		case "info":
			if name != "-" {
				return nil, fmt.Errorf("%s.%s: an info column is never recorded (json:\"-\")", row, f.Name)
			}
			c.name = f.Name
		default:
			return nil, fmt.Errorf("%s.%s: gate tag %q, want key, exact or info", row, f.Name, c.role)
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// rowKey renders a row's identity: its key columns as name=value.
func rowKey(row reflect.Value, cols []column) string {
	var parts []string
	for _, c := range cols {
		if c.role == "key" {
			parts = append(parts, fmt.Sprintf("%s=%v", c.name, row.Field(c.index).Interface()))
		}
	}
	return strings.Join(parts, ",")
}

// compare appends one section's checks to the report. base and cand are
// slices of the same row struct type; rows are matched on their key
// columns and every exact column must be equal.
func (r *Report) compare(section string, base, cand any) error {
	bv, cv := reflect.ValueOf(base), reflect.ValueOf(cand)
	cols, err := columnsOf(bv.Type().Elem())
	if err != nil {
		return err
	}
	byKey := make(map[string]reflect.Value)
	for i := 0; i < cv.Len(); i++ {
		byKey[rowKey(cv.Index(i), cols)] = cv.Index(i)
	}
	for i := 0; i < bv.Len(); i++ {
		b := bv.Index(i)
		key := rowKey(b, cols)
		name := section + "/" + key
		c, ok := byKey[key]
		if !ok {
			r.Checks = append(r.Checks, Check{Name: name + "/present", Baseline: 1, Candidate: 0})
			continue
		}
		for _, col := range cols {
			if col.role != "exact" {
				continue
			}
			want, got := b.Field(col.index).Interface(), c.Field(col.index).Interface()
			r.Checks = append(r.Checks, Check{
				Name: name + "/" + col.name, Baseline: want, Candidate: got, Pass: want == got,
			})
		}
	}
	return nil
}

// recorded is a BENCH.json file as read: section name to its raw parts.
type recorded map[string]struct {
	Options json.RawMessage `json:"options"`
	Rows    json.RawMessage `json:"rows"`
}

// load reads a sections file, rejecting any section the registry does
// not know.
func load(path string) (recorded, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var secs recorded
	if err := json.Unmarshal(data, &secs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for name := range secs {
		known := false
		for _, e := range repro.Experiments {
			known = known || (e.Name == name && e.NewRows != nil)
		}
		if !known {
			return nil, fmt.Errorf("%s: section %q is not a gated experiment of the registry", path, name)
		}
	}
	return secs, nil
}

// rowsOf decodes a section's recorded rows into a slice of the
// experiment's row type; a recorded column the type does not have is an
// error. A section the file lacks has no rows, so every baseline row of
// it is missing.
func rowsOf(e repro.Experiment, path string, secs recorded) (any, error) {
	rows := e.NewRows()
	if raw := secs[e.Name].Rows; raw != nil {
		if err := repro.DecodeRecorded(raw, rows); err != nil {
			return nil, fmt.Errorf("%s: %s rows: %w", path, e.Name, err)
		}
	}
	return reflect.ValueOf(rows).Elem().Interface(), nil
}

// Gate compares every section of the baseline file against a candidate:
// the same section of the candidate file, or, when candidatePath is
// empty, a fresh in-process run from the section's recorded options.
func Gate(baselinePath, candidatePath string) (*Report, error) {
	base, err := load(baselinePath)
	if err != nil {
		return nil, err
	}
	var candFile recorded
	if candidatePath != "" {
		if candFile, err = load(candidatePath); err != nil {
			return nil, err
		}
	}
	rep := &Report{}
	for _, e := range repro.Experiments {
		sec, ok := base[e.Name]
		if !ok {
			continue
		}
		baseRows, err := rowsOf(e, baselinePath, base)
		if err != nil {
			return nil, err
		}
		var candRows any
		if candFile != nil {
			if candRows, err = rowsOf(e, candidatePath, candFile); err != nil {
				return nil, err
			}
		} else {
			out, err := e.Run(repro.RunArgs{Recorded: sec.Options})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			candRows = out.Gated.Rows
		}
		if err := rep.compare(e.Name, baseRows, candRows); err != nil {
			return nil, err
		}
	}
	rep.Pass = true
	for _, c := range rep.Checks {
		rep.Pass = rep.Pass && c.Pass
	}
	return rep, nil
}

func main() {
	baselinePath := flag.String("baseline", "", "baseline sections file, e.g. BENCH.json (required)")
	candidatePath := flag.String("candidate", "", "candidate sections file; empty reruns every baseline section in-process")
	flag.Parse()
	if *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -baseline is required")
		flag.Usage()
		os.Exit(2)
	}
	rep, err := Gate(*baselinePath, *candidatePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if !rep.Pass {
		for _, c := range rep.Checks {
			if !c.Pass {
				fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: candidate %v, baseline %v\n",
					c.Name, c.Candidate, c.Baseline)
			}
		}
		os.Exit(1)
	}
}
