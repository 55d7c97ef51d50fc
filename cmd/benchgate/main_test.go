package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro"
)

// checkedIn is the baseline CI gates against.
const checkedIn = "../../BENCH.json"

// gatedExperiments is the registry's gated half.
func gatedExperiments() []repro.Experiment {
	var out []repro.Experiment
	for _, e := range repro.Experiments {
		if e.NewRows != nil {
			out = append(out, e)
		}
	}
	return out
}

func experiment(t *testing.T, name string) repro.Experiment {
	t.Helper()
	for _, e := range gatedExperiments() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no gated experiment %q in the registry", name)
	return repro.Experiment{}
}

// sectionRows decodes every section of the checked-in baseline into its
// registered row type.
func sectionRows(t *testing.T) map[string]any {
	t.Helper()
	secs, err := load(checkedIn)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]any)
	for _, e := range gatedExperiments() {
		if _, ok := secs[e.Name]; !ok {
			t.Errorf("%s has no section for the gated experiment %s", checkedIn, e.Name)
			continue
		}
		rows, err := rowsOf(e, checkedIn, secs)
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name] = rows
	}
	return out
}

// cloneRows copies a []Row so a test can inject a regression into it.
func cloneRows(rows any) reflect.Value {
	v := reflect.ValueOf(rows)
	c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
	reflect.Copy(c, v)
	return c
}

// bump changes a field's value: +1 for numbers, a suffix for strings.
func bump(f reflect.Value) {
	switch f.Kind() {
	case reflect.Int, reflect.Int64:
		f.SetInt(f.Int() + 1)
	case reflect.Uint64:
		f.SetUint(f.Uint() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float()*1e6 + 1)
	case reflect.String:
		f.SetString(f.String() + "'")
	default:
		panic("bump: unhandled kind " + f.Kind().String())
	}
}

// gate runs the comparator over one section and returns the failing
// check names.
func gate(t *testing.T, section string, base, cand any) (failed []string) {
	t.Helper()
	rep := &Report{}
	if err := rep.compare(section, base, cand); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	return failed
}

// TestRowContract holds every registered row type to the declaration
// the comparator relies on: every exported field says gate:"key",
// "exact" or "info" (info fields, and only they, are json:"-"), there
// is something to match rows on and something to compare, and the
// checked-in rows are unique under their keys.
func TestRowContract(t *testing.T) {
	rows := sectionRows(t)
	for _, e := range gatedExperiments() {
		row := reflect.TypeOf(e.NewRows()).Elem().Elem()
		cols, err := columnsOf(row)
		if err != nil {
			t.Error(err)
			continue
		}
		roles := make(map[string]int)
		for _, c := range cols {
			roles[c.role]++
		}
		if roles["key"] == 0 || roles["exact"] == 0 {
			t.Errorf("%s: %s has %d key and %d exact columns, want at least one of each",
				e.Name, row, roles["key"], roles["exact"])
		}
		seen := make(map[string]bool)
		v := reflect.ValueOf(rows[e.Name])
		for i := 0; v.IsValid() && i < v.Len(); i++ {
			if k := rowKey(v.Index(i), cols); seen[k] {
				t.Errorf("%s: two rows of %s share the key %s", e.Name, checkedIn, k)
			} else {
				seen[k] = true
			}
		}
	}
}

func TestIdenticalResultsPass(t *testing.T) {
	rep, err := Gate(checkedIn, checkedIn)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Checks) == 0 {
		t.Fatalf("the baseline against itself: pass=%v over %d checks", rep.Pass, len(rep.Checks))
	}
}

// TestInvariantDivergenceFails injects a regression into every exact
// column of every section of the checked-in baseline, one at a time:
// each must fail the gate under that column's name. A changed info
// column must not.
func TestInvariantDivergenceFails(t *testing.T) {
	for section, base := range sectionRows(t) {
		cols, err := columnsOf(reflect.TypeOf(base).Elem())
		if err != nil {
			t.Fatal(err)
		}
		last := reflect.ValueOf(base).Len() - 1
		for _, col := range cols {
			cand := cloneRows(base)
			bump(cand.Index(last).Field(col.index))
			failed := gate(t, section, base, cand.Interface())
			switch col.role {
			case "exact":
				want := section + "/" + rowKey(cand.Index(last), cols) + "/" + col.name
				if len(failed) != 1 || failed[0] != want {
					t.Errorf("%s off by one: failing checks %v, want [%s]", col.name, failed, want)
				}
			case "info":
				if len(failed) != 0 {
					t.Errorf("%s: info column %s was compared: %v", section, col.name, failed)
				}
			}
		}
	}
}

// TestMissingRowFails drops the candidate's last row in every section
// (for a key column, changing the key is the same thing).
func TestMissingRowFails(t *testing.T) {
	for section, base := range sectionRows(t) {
		cols, _ := columnsOf(reflect.TypeOf(base).Elem())
		v := reflect.ValueOf(base)
		want := section + "/" + rowKey(v.Index(v.Len()-1), cols) + "/present"
		if failed := gate(t, section, base, v.Slice(0, v.Len()-1).Interface()); len(failed) != 1 || failed[0] != want {
			t.Errorf("dropped row: failing checks %v, want [%s]", failed, want)
		}
		for _, col := range cols {
			if col.role != "key" {
				continue
			}
			cand := cloneRows(base)
			bump(cand.Index(v.Len() - 1).Field(col.index))
			if failed := gate(t, section, base, cand.Interface()); len(failed) != 1 || failed[0] != want {
				t.Errorf("key %s changed: failing checks %v, want [%s]", col.name, failed, want)
			}
		}
	}
}

// TestCompareAllocGates pins the composite key: allocbench rows match
// on (profile, mutators) whatever order they arrive in, and a check is
// named section/key=value,key=value/column.
func TestCompareAllocGates(t *testing.T) {
	base := []repro.AllocBenchRow{
		{Profile: "freelist", Mutators: 1, ObjectsAllocated: 1000, NsPerAlloc: 80},
		{Profile: "line", Mutators: 1, ObjectsAllocated: 1000, NsPerAlloc: 40},
		{Profile: "line", Mutators: 8, ObjectsAllocated: 8000, NsPerAlloc: 35},
	}
	cand := []repro.AllocBenchRow{base[2], base[0], base[1]}
	cand[0].NsPerAlloc = 1e9 // timing is not this gate's business
	if failed := gate(t, "allocbench", base, cand); len(failed) != 0 {
		t.Fatalf("reordered rows with a slower clock failed: %v", failed)
	}
	cand[2].ObjectsAllocated = 999
	want := "allocbench/profile=line,mutators=1/objects_allocated"
	if failed := gate(t, "allocbench", base, cand); len(failed) != 1 || failed[0] != want {
		t.Fatalf("failing checks %v, want [%s]", failed, want)
	}
}

// TestCompareServeGates: the budget-contract columns gate exactly,
// the interleaving-dependent forced-collection count never does.
func TestCompareServeGates(t *testing.T) {
	base := []repro.ServeBenchRow{
		{Policy: "fail", Tenants: 64, Requests: 24, ObjectsAllocated: 1024, ObjectsLive: 1024, Denials: 512},
		{Policy: "collect-first", Tenants: 64, Requests: 32, ObjectsAllocated: 2048, ObjectsLive: 472,
			ReclaimedObjects: 1576, ForcedCollections: 90},
		{Policy: "evict", Tenants: 64, Requests: 20, ObjectsAllocated: 1024, Evictions: 64, ReclaimedObjects: 1024},
	}
	cand := append([]repro.ServeBenchRow(nil), base...)
	cand[1].ForcedCollections = 9999
	if failed := gate(t, "servebench", base, cand); len(failed) != 0 {
		t.Fatalf("forced-collection count was gated: %v", failed)
	}
	cand[0].Denials = 511      // one tenant admitted past its budget
	cand[2].FairnessSpread = 4 // budget enforcement leaked between tenants
	want := []string{"servebench/policy=fail/denials", "servebench/policy=evict/fairness_spread"}
	if failed := gate(t, "servebench", base, cand); !reflect.DeepEqual(failed, want) {
		t.Fatalf("failing checks %v, want %v", failed, want)
	}
}

// writeSections records the given sections into a temp file.
func writeSections(t *testing.T, secs map[string]*repro.Section) string {
	t.Helper()
	data, err := json.Marshal(secs)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func markSection(marked uint64) *repro.Section {
	return &repro.Section{
		Options: repro.MarkBenchOptions{Workers: []int{1}, Lists: 4, Nodes: 50, Iters: 1},
		Rows:    []repro.MarkBenchRow{{Workers: 1, ObjectsMarked: marked}},
	}
}

func sweepSection() *repro.Section {
	return &repro.Section{Rows: []repro.SweepBenchRow{
		{Mode: "eager", ObjectsFreed: 500, BytesFreed: 4000},
		{Mode: "lazy", DeferredBlocks: 30, ObjectsFreed: 500, BytesFreed: 4000},
	}}
}

// TestGateDetectsSchemaAndCompares: each section of a file is decoded
// as the row type registered under its name and compared against the
// same-named section of the candidate file.
func TestGateDetectsSchemaAndCompares(t *testing.T) {
	base := writeSections(t, map[string]*repro.Section{"markbench": markSection(200), "sweepbench": sweepSection()})
	regressed := sweepSection()
	regressed.Rows.([]repro.SweepBenchRow)[1].BytesFreed = 3999
	cand := writeSections(t, map[string]*repro.Section{"markbench": markSection(200), "sweepbench": regressed})
	rep, err := Gate(base, cand)
	if err != nil {
		t.Fatal(err)
	}
	var failed []string
	for _, c := range rep.Checks {
		if !c.Pass {
			failed = append(failed, c.Name)
		}
	}
	if rep.Pass || len(rep.Checks) != 7 || len(failed) != 1 || failed[0] != "sweepbench/mode=lazy/bytes_freed" {
		t.Fatalf("pass=%v, %d checks, failing %v", rep.Pass, len(rep.Checks), failed)
	}
}

// TestGateSchemaMismatch: a section the registry does not know is an
// error on either side, not a silent pass.
func TestGateSchemaMismatch(t *testing.T) {
	good := writeSections(t, map[string]*repro.Section{"markbench": markSection(200)})
	for _, name := range []string{"nosuchbench", "table1"} { // unknown; registered but not gated
		bad := writeSections(t, map[string]*repro.Section{"markbench": markSection(200), name: sweepSection()})
		if _, err := Gate(bad, good); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("baseline with section %q: err = %v", name, err)
		}
		if _, err := Gate(good, bad); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("candidate with section %q: err = %v", name, err)
		}
	}
	wrongRows := writeSections(t, map[string]*repro.Section{"markbench": sweepSection()})
	if _, err := Gate(good, wrongRows); err == nil || !strings.Contains(err.Error(), "mode") {
		t.Errorf("sweep rows filed under markbench: err = %v, want the unknown column named", err)
	}
}

// TestGateServeSchemaMismatch: a candidate file that holds some other
// section than the baseline's has none of the baseline's rows.
func TestGateServeSchemaMismatch(t *testing.T) {
	serve := &repro.Section{Rows: []repro.ServeBenchRow{{Policy: "fail", Tenants: 64}, {Policy: "evict", Tenants: 64}}}
	base := writeSections(t, map[string]*repro.Section{"servebench": serve})
	rep, err := Gate(base, writeSections(t, map[string]*repro.Section{"markbench": markSection(200)}))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pass || len(rep.Checks) != 2 || rep.Checks[0].Name != "servebench/policy=fail/present" {
		t.Fatalf("pass=%v checks=%+v, want two failed /present checks", rep.Pass, rep.Checks)
	}
	if rep, err := Gate(base, base); err != nil || !rep.Pass {
		t.Fatalf("identical servebench files: %+v, %v", rep, err)
	}
}

// TestGateInProcessCandidate runs the real benchmark as the candidate,
// from the options the section records: the default CI path.
func TestGateInProcessCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real markbench")
	}
	for marked, pass := range map[uint64]bool{200: true, 201: false} {
		rep, err := Gate(writeSections(t, map[string]*repro.Section{"markbench": markSection(marked)}), "")
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pass != pass || len(rep.Checks) != 1 {
			t.Errorf("baseline objects_marked %d: pass=%v over %+v", marked, rep.Pass, rep.Checks)
		}
	}
}

// TestSectionGatesAgainstItsOwnOptions records sections run at
// non-default options and gates them against a fresh in-process run:
// the candidate is rerun from what the section recorded — every option,
// not the ones a baseline's result fields happened to imply.
func TestSectionGatesAgainstItsOwnOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweepbench and servebench")
	}
	secs := make(map[string]*repro.Section)
	for name, opts := range map[string]string{
		"sweepbench": `{"cycles": 3, "churn": 5, "seed": 7}`,
		"servebench": `{"tenants": 32, "requests": 6}`,
	} {
		out, err := experiment(t, name).Run(repro.RunArgs{Recorded: json.RawMessage(opts)})
		if err != nil {
			t.Fatal(err)
		}
		secs[name] = out.Gated
	}
	// The effective options are what is recorded: defaults filled in.
	want := repro.SweepBenchOptions{Lists: 48, Nodes: 1500, Cycles: 3, Churn: 5, Seed: 7}
	if got := secs["sweepbench"].Options; got != want {
		t.Fatalf("recorded sweepbench options %+v, want %+v", got, want)
	}
	rep, err := Gate(writeSections(t, secs), "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Pass || len(rep.Checks) != 2*3+3*8 {
		t.Fatalf("sections against their own options: pass=%v over %d checks: %+v", rep.Pass, len(rep.Checks), rep.Checks)
	}
	// The rows do depend on those options: the same rows filed under the
	// default churn schedule are a regression.
	want.Churn, want.Seed = 12, 1
	secs["sweepbench"].Options = want
	if rep, err = Gate(writeSections(t, secs), ""); err != nil || rep.Pass {
		t.Fatalf("rows recorded at churn 5, seed 7 passed a rerun at churn 12, seed 1 (err %v)", err)
	}
	// An option the driver does not have is a broken baseline, not a default.
	secs["sweepbench"].Options = map[string]int{"cycles": 3, "chrun": 5}
	if _, err = Gate(writeSections(t, secs), ""); err == nil {
		t.Fatal("unknown recorded option did not error")
	}
}
