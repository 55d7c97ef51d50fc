// Package repro is a reproduction of "Space Efficient Conservative
// Garbage Collection" (Hans-J. Boehm, PLDI 1993) as a Go library.
//
// The paper's collector manages the malloc heap of a real 32-bit
// process and scans its registers, stack and static data
// conservatively. Go's runtime owns the real stack and heap, so this
// library builds the collector on a faithful substrate instead: a
// simulated 32-bit word-addressed address space (internal/mem), a
// mutator machine with SPARC-style register windows and a downward
// stack (internal/machine), a Boehm-Weiser block allocator
// (internal/alloc), and a conservative marker implementing the paper's
// figure-2 blacklisting algorithm (internal/mark). See DESIGN.md for
// the full inventory and EXPERIMENTS.md for paper-versus-measured
// results.
//
// # Quick start
//
//	w, err := repro.NewWorld(repro.Config{Blacklisting: repro.BlacklistDense})
//	if err != nil { ... }
//	data, _ := w.Space.MapNew("globals", repro.KindData, 0x2000, 4096, 4096)
//	obj, _ := w.Allocate(2, false)      // a two-word object
//	data.Store(0x2000, repro.Word(obj)) // root it
//	w.Collect()                         // obj survives
//
// The experiment drivers (Table1, Figure1, StackClearing, ...) each
// regenerate one of the paper's tables or figures; cmd/gcbench wraps
// them in a command-line tool.
package repro

import (
	"io"

	"repro/internal/alloc"
	"repro/internal/blacklist"
	"repro/internal/core"
	"repro/internal/inspect"
	"repro/internal/machine"
	"repro/internal/mark"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Core simulated-memory types.
type (
	// Addr is a byte address in the simulated 32-bit address space.
	Addr = mem.Addr
	// Word is the contents of one 32-bit memory word.
	Word = mem.Word
	// Segment is a contiguous run of simulated memory.
	Segment = mem.Segment
	// AddressSpace is an ordered collection of segments.
	AddressSpace = mem.AddressSpace
	// Kind classifies a segment (text, data, stack, heap).
	Kind = mem.Kind
)

// Segment kinds.
const (
	KindText  = mem.KindText
	KindData  = mem.KindData
	KindStack = mem.KindStack
	KindHeap  = mem.KindHeap
	KindOther = mem.KindOther
)

// Fundamental sizes of the simulated machine.
const (
	WordBytes = mem.WordBytes
	PageBytes = mem.PageBytes
)

// Collector types.
type (
	// World is one simulated process image under garbage collection.
	World = core.World
	// Region is the world held for one World.Run: its calls take no lock.
	Region = core.Region
	// Config parameterises a World.
	Config = core.Config
	// CollectionStats describes one collection.
	CollectionStats = core.CollectionStats
	// BlacklistMode selects the blacklist representation.
	BlacklistMode = core.BlacklistMode
	// PointerPolicy selects pointer-validity rules.
	PointerPolicy = mark.PointerPolicy
	// AlignPolicy selects candidate extraction alignment.
	AlignPolicy = mark.AlignPolicy
	// BlacklistStats counts blacklist activity.
	BlacklistStats = blacklist.Stats
	// AllocStats reports allocator activity.
	AllocStats = alloc.Stats
	// SpaceBreakdown buckets every committed heap byte exactly.
	SpaceBreakdown = alloc.SpaceBreakdown
	// FreeBlockPolicy selects free-block management.
	FreeBlockPolicy = alloc.FreeBlockPolicy
)

// Blacklist modes (paper, section 3).
const (
	BlacklistOff    = core.BlacklistOff
	BlacklistDense  = core.BlacklistDense
	BlacklistHashed = core.BlacklistHashed
)

// Pointer-validity policies (paper, section 2).
const (
	PointerBase     = mark.PointerBase
	PointerInterior = mark.PointerInterior
)

// Candidate alignment policies (paper, section 2 and figure 1).
const (
	AlignedWords  = mark.AlignedWords
	AnyByteOffset = mark.AnyByteOffset
)

// Free-block policies (paper, conclusions).
const (
	AddressOrdered = alloc.AddressOrdered
	LIFO           = alloc.LIFO
)

// NewWorld builds a collected world with the given configuration.
func NewWorld(cfg Config) (*World, error) { return core.NewWorld(nil, cfg) }

// NewWorldIn builds a collected world inside an existing address space.
func NewWorldIn(space *AddressSpace, cfg Config) (*World, error) {
	return core.NewWorld(space, cfg)
}

// Mutator machine types.
type (
	// Machine is a simulated mutator (registers + stack).
	Machine = machine.Machine
	// MachineConfig parameterises a Machine.
	MachineConfig = machine.Config
	// Frame is a live activation record.
	Frame = machine.Frame
	// ClearPolicy selects the stack-hygiene strategy (section 3.1).
	ClearPolicy = machine.ClearPolicy
)

// Stack clearing policies (paper, section 3.1).
const (
	ClearNone  = machine.ClearNone
	ClearCheap = machine.ClearCheap
	ClearEager = machine.ClearEager
)

// NewMachine creates a mutator machine in the world's address space and
// attaches it as the world's root source.
func NewMachine(w *World, cfg MachineConfig) (*Machine, error) {
	m, err := machine.New(w.Space, cfg)
	if err != nil {
		return nil, err
	}
	w.SetMutator(m)
	return m, nil
}

// Concurrent mutator handles (DESIGN.md section 5d). Create one per
// allocating goroutine:
//
//	m := w.NewMutator()
//	obj, _ := m.Allocate(2, false)           // usually lock-free of the central lock
//	obj, _ = m.AllocateRooted(data, 0x2000, 2, false) // allocate + root atomically
//	m.Collect()                              // stops and flushes every handle
type (
	// Mutator is one goroutine's allocation handle onto a World.
	Mutator = core.Mutator
	// MutatorStats counts one handle's fast/slow-path activity.
	MutatorStats = core.MutatorStats
)

// Multi-tenant serving (DESIGN.md section 5i). A Tenant wraps mutator
// handles with a heap budget and an over-budget policy:
//
//	t := w.NewTenant(TenantConfig{BudgetBytes: 64 << 10, Policy: TenantCollectFirst})
//	m := t.NewMutator()
//	_, err := m.Allocate(8, false) // errors.Is(err, ErrBudgetExceeded) once over budget
type (
	// Tenant is one budgeted session sharing a world's heap.
	Tenant = core.Tenant
	// TenantConfig declares a tenant's budget and policy.
	TenantConfig = core.TenantConfig
	// TenantStats is a snapshot of a tenant's accounting.
	TenantStats = core.TenantStats
	// TenantPolicy selects what an over-budget allocation does.
	TenantPolicy = core.TenantPolicy
	// BudgetError is the typed denial a fail-policy tenant returns.
	BudgetError = core.BudgetError
	// ServeSessionParams scripts one request-driven tenant session.
	ServeSessionParams = workload.ServeSessionParams
	// ServeSessionResult is one session's outcome.
	ServeSessionResult = workload.ServeSessionResult
	// ServeKind selects a session body (scheme churn or leak).
	ServeKind = workload.ServeKind
)

// Over-budget policies and serve-session kinds.
const (
	TenantFail         = core.TenantFail
	TenantCollectFirst = core.TenantCollectFirst
	TenantEvict        = core.TenantEvict
	ServeScheme        = workload.ServeScheme
	ServeLeak          = workload.ServeLeak
)

// Tenant sentinel errors (match with errors.Is) and the session entry
// point.
var (
	ErrBudgetExceeded  = core.ErrBudgetExceeded
	ErrTenantCancelled = core.ErrTenantCancelled
	ErrTenantEvicted   = core.ErrTenantEvicted
	RunServeSession    = workload.RunServeSession
)

// NewMutatorMachine creates a machine in the world's address space and
// attaches it as a mutator handle's root source: the machine's
// registers and stack are scanned as that mutator's roots at every
// safepoint.
func NewMutatorMachine(w *World, m *Mutator, cfg MachineConfig) (*Machine, error) {
	mach, err := machine.New(w.Space, cfg)
	if err != nil {
		return nil, err
	}
	m.SetRootSource(mach)
	return mach, nil
}

// Platform profiles (paper, table 1 and appendix B).
type (
	// Profile describes one table-1 environment.
	Profile = platform.Profile
	// Env is a built environment ready to run program T.
	Env = platform.Env
)

// Table-1 environment constructors.
var (
	SPARCStatic  = platform.SPARCStatic
	SPARCDynamic = platform.SPARCDynamic
	SGI          = platform.SGI
	OS2          = platform.OS2
	PCR          = platform.PCR
)

// Workload types (paper, appendix A and sections 3.1 and 4).
type (
	// ProgramTParams configures program T.
	ProgramTParams = workload.ProgramTParams
	// ProgramTResult reports a program-T run.
	ProgramTResult = workload.ProgramTResult
	// ReverseParams configures the list-reversal benchmark.
	ReverseParams = workload.ReverseParams
	// ReverseMode selects recursive vs loop compilation.
	ReverseMode = workload.ReverseMode
	// GridKind selects embedded vs separate grid links.
	GridKind = workload.GridKind
	// Queue is the section-4 bounded-window queue.
	Queue = workload.Queue
	// LazyStream is the section-4 memoising stream.
	LazyStream = workload.LazyStream
	// LazyStreamResult reports a lazy-stream false-reference run.
	LazyStreamResult = workload.LazyStreamResult
)

// Workload constants and constructors.
const (
	ReverseRecursive = workload.ReverseRecursive
	ReverseLoop      = workload.ReverseLoop
	GridEmbedded     = workload.GridEmbedded
	GridSeparate     = workload.GridSeparate
)

// Workload entry points.
var (
	RunProgramT    = workload.RunProgramT
	RunReversal    = workload.RunReversal
	RunLazyStream  = workload.RunLazyStream
	BuildGrid      = workload.BuildGrid
	NewQueue       = workload.NewQueue
	NewLazyStream  = workload.NewLazyStream
	MakeList       = workload.MakeList
	MakeListRooted = workload.MakeListRooted
)

// Observability types (see DESIGN.md section 5c). A TraceRecorder is
// attached with World.SetTracer or World.EnableTracing; a nil recorder
// is a valid, allocation-free no-op, so tracing costs nothing when off.
type (
	// TraceRecorder is a fixed-capacity ring buffer of collector events.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded collector event.
	TraceEvent = trace.Event
	// TraceKind identifies the type of a trace event.
	TraceKind = trace.Kind
	// MetricsRegistry is the world's counter/gauge registry, returned by
	// World.Metrics.
	MetricsRegistry = metrics.Registry
	// MetricSample is one metric's name, kind and value in a snapshot.
	MetricSample = metrics.Sample
	// Histogram is a log₂-bucketed pause-time distribution, returned by
	// MetricsRegistry.Histogram.
	Histogram = metrics.Histogram
	// HistogramSample is one histogram's JSON-exportable snapshot,
	// returned by MetricsRegistry.HistogramSnapshot and carried in the
	// trace JSON dump.
	HistogramSample = metrics.HistogramSample
)

// Online leak-detection types (DESIGN.md section 5j). Start a watcher
// with World.StartRetentionWatch; alerts stream on the returned
// channel and trends are read back with World.RetentionTrends.
type (
	// WatchConfig parameterises World.StartRetentionWatch.
	WatchConfig = core.WatchConfig
	// LeakAlert is one sustained-growth detection.
	LeakAlert = core.LeakAlert
	// LeakTrend is one attribution key's trend snapshot.
	LeakTrend = core.LeakTrend
)

// Retention-provenance types (DESIGN.md section 5e). Enable recording
// with World.EnableProvenance(true), collect, then ask World.WhyLive /
// World.GetRetentionReport / World.BuildHeapSnapshot.
type (
	// ParentRecord is one first-marking provenance record.
	ParentRecord = mark.ParentRecord
	// RootKind classifies a record's origin (register/stack/segment/heap).
	RootKind = mark.RootKind
	// RefKind classifies the referencing word (exact/interior/unaligned).
	RefKind = mark.RefKind
	// RetentionOptions parameterises World.GetRetentionReport.
	RetentionOptions = core.RetentionOptions
	// RetentionReport is the genuine-versus-spurious attribution.
	RetentionReport = core.RetentionReport
	// RootRetention is one root slot's sole-retention entry.
	RootRetention = core.RootRetention
	// RootSlotID names one root slot.
	RootSlotID = core.RootSlotID
	// SizeClassRetention is the per-object-size breakdown row.
	SizeClassRetention = core.SizeClassRetention
	// LabelRetention is the per-label breakdown row.
	LabelRetention = core.LabelRetention
	// HeapSnapshot is World.BuildHeapSnapshot's export.
	HeapSnapshot = core.HeapSnapshot
	// SnapshotObject is one object in a heap snapshot.
	SnapshotObject = core.SnapshotObject
	// SnapshotEdge is one heap→heap reference in a snapshot.
	SnapshotEdge = core.SnapshotEdge
)

// Root kinds (ParentRecord.Kind).
const (
	RootNone     = mark.RootNone
	RootRegister = mark.RootRegister
	RootStack    = mark.RootStack
	RootSegment  = mark.RootSegment
)

// Reference kinds (ParentRecord.Ref).
const (
	RefExact     = mark.RefExact
	RefInterior  = mark.RefInterior
	RefUnaligned = mark.RefUnaligned
)

// WhyLivePath renders a World.WhyLive chain root-first as text.
func WhyLivePath(addr Addr, path []ParentRecord) string {
	return inspect.WhyLivePath(addr, path)
}

// RetentionText renders a retention report as text.
func RetentionText(rep RetentionReport) string { return inspect.RetentionText(rep) }

// LeakAlertText renders one leak alert as a single line.
func LeakAlertText(a LeakAlert) string { return inspect.LeakAlertText(a) }

// LeakTrendsText renders a trend series as an aligned table.
func LeakTrendsText(trends []LeakTrend) string { return inspect.LeakTrendsText(trends) }

// WriteHeapSnapshot exports a heap snapshot as indented JSON.
func WriteHeapSnapshot(out io.Writer, snap HeapSnapshot) error {
	return inspect.WriteHeapSnapshot(out, snap)
}

// NewTraceRecorder creates a trace ring buffer holding up to capacity
// events (<= 0 selects the default capacity).
var NewTraceRecorder = trace.New

// HeapMap renders the world's heap as one character per block (see
// cmd/heapdump for the legend), width blocks per line.
func HeapMap(w *World, width int) string {
	return inspect.HeapMap(w.Heap, w.Blacklist, width)
}

// Summary renders the world's allocator, blacklist and collection
// statistics as text.
func Summary(w *World) string { return inspect.Summary(w) }

// TraceLine renders one collection in the style of the Go runtime's
// gctrace lines; pair it with World.SetCollectionHook.
func TraceLine(n int, st CollectionStats) string { return inspect.TraceLine(n, st) }
