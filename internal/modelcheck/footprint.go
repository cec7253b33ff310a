package modelcheck

// Footprint declares the atomic surface one model covers: which packages it
// is the model of, which nominal atomic words those packages may touch, and
// which invariant.SchedPoint tags they may yield at.
//
// hydralint's model-conformance pass parses these declarations *statically*
// (it never executes this package), diffs them against the atomic footprint
// it extracts from the covered packages, and fails the build on any drift in
// either direction: an atomic word or SchedPoint tag that appears in covered
// code without being declared here means the model no longer exercises the
// real interleaving surface, and a declared word no word of code matches
// means the declaration is stale. Every entry must therefore be a literal
// string — no constants-by-computation, no appends.
//
// Word identities use hydralint's nominal form: "pkgpath.Type.field" for
// struct fields ("[]" appended per indexing level) and "pkgpath.var" for
// package-level variables.
type Footprint struct {
	Model       string   // Model.Name this footprint belongs to
	Packages    []string // import paths of the code the model covers
	AtomicWords []string // nominal word ids the covered packages may access
	SchedTags   []string // invariant.SchedPoint tags the covered code may hit
}

// footprints is the declared model coverage, one entry per registered model.
// Keep it in lockstep with Models(); TestFootprintsMatchModels enforces the
// name pairing and hydralint enforces the contents.
var footprints = []Footprint{
	{
		Model:       "guardian",
		Packages:    []string{"hydradb/internal/arena", "hydradb/internal/kv"},
		AtomicWords: []string{"hydradb/internal/arena.WordArea.words[]"},
		SchedTags:   []string{"word"},
	},
	{
		Model: "lease",
		// kv's lease words live in the arena word area; kv itself performs
		// no direct atomic operations, which this empty footprint pins.
		Packages:    []string{"hydradb/internal/kv"},
		AtomicWords: []string{},
		SchedTags:   []string{},
	},
	{
		Model: "mailbox",
		// The ring indicators are arena words toggled through the fabric;
		// message itself stays free of direct atomics.
		Packages:    []string{"hydradb/internal/message", "hydradb/internal/arena"},
		AtomicWords: []string{"hydradb/internal/arena.WordArea.words[]"},
		SchedTags:   []string{"word"},
	},
	{
		Model:       "replication",
		Packages:    []string{"hydradb/internal/replication"},
		AtomicWords: []string{"hydradb/internal/replication.Secondary.applied", "hydradb/internal/replication.Secondary.started"},
		SchedTags:   []string{},
	},
}

// Footprints returns the declared coverage table.
func Footprints() []Footprint {
	out := make([]Footprint, len(footprints))
	copy(out, footprints)
	return out
}
