// Package protocolspec is the declarative vocabulary for HydraDB's
// lock-free publication protocols. Each package that owns a protocol
// (the kv guardian word, the mailbox ring indicator, the replication
// ready word, the lease words) declares a package-level Spec literal
// describing the atomic words it publishes through, the happens-before
// edges the protocol requires, and the torn-read guards its one-sided
// readers rely on.
//
// cmd/hydralint parses Spec literals statically and drives the generic
// spec verification engine off them: the spec-order pass proves the
// declared edges hold on every code path, spec-coverage flags atomic
// stores to spec'd words that no edge or Writers entry sanctions,
// spec-drift flags declarations that no longer match the code, and
// spec-guard re-proves the torn-read guards. spec-coverage also flags an
// atomic word in one of a spec's Packages that no spec declares, so a
// new word in a protocol package cannot go unreviewed.
//
// Specs must be pure literals — string constants, bool literals, and
// nested composite literals only — because the linter evaluates them
// without executing code. Words are named with hydralint's nominal
// word ids ("pkgpath.Type.field" plus "[]" per index level, or
// "pkgpath.var"); functions with types.Func.FullName() strings
// ("pkgpath.F" or "(*pkgpath.T).M").
//
// This package deliberately imports nothing, so every data-plane
// package can declare a Spec without widening its dependency cone.
package protocolspec

// Role classifies what a declared atomic word means to the protocol.
type Role string

const (
	// Guardian is the per-item guardian word of the out-of-place PUT
	// protocol (§4.2.3): readers validate it before and after copying
	// the payload.
	Guardian Role = "guardian"
	// PayloadGroup marks a word that names a payload region rather
	// than a single indicator (reserved; payload regions are today
	// declared with hydralint:region markers).
	PayloadGroup Role = "payload-group"
	// PubWord is a publication pointer readers load to find an item.
	PubWord Role = "pub-word"
	// ReadyWord is a produced-side completeness indicator (mailbox
	// slot header).
	ReadyWord Role = "ready-word"
	// CommitWord is a watermark that must only advance after the work
	// it acknowledges is durable in memory (replication applied
	// sequence; later, mini-transaction commit words).
	CommitWord Role = "commit-word"
	// LeaseWord holds an item's lease expiry; it is the one word the
	// protocol allows to be rewritten after publication, because
	// renewal is monotonic and readers re-validate the guardian.
	LeaseWord Role = "lease-word"
)

// EdgeKind names a required happens-before edge of a protocol.
type EdgeKind string

const (
	// PayloadBeforeRelease: every payload write sequences before the
	// release store of the publication indicator. From names the
	// publish constant (hydralint:publish) or the publishing function
	// (hydralint:publishes); To names the indicator word.
	PayloadBeforeRelease EdgeKind = "payload-before-release"
	// RetractBeforeFree: a function that frees an item's memory and
	// stores the retraction constant must store the retraction before
	// the first free, so concurrent one-sided readers fail validation
	// instead of reading recycled bytes. From names the retraction
	// constant (hydralint:unpublish); To names the freeing function.
	RetractBeforeFree EdgeKind = "retract-before-free"
	// ApplyAfterReplicate: a commit word may only be stored after the
	// replicated record has been applied. From names the applying
	// function (a bare method name matches any callee with that
	// selector, since appliers are usually interface-typed); To names
	// the commit word.
	ApplyAfterReplicate EdgeKind = "apply-after-replicate"
)

// Word declares one atomic word the protocol owns.
type Word struct {
	// Name is the hydralint nominal word id.
	Name string
	// Role classifies the word.
	Role Role
	// Writers lists the functions sanctioned to store the word
	// directly (types.Func.FullName form). Stores outside this list —
	// and outside the publish/retract constants and hydralint:publishes
	// functions the flow pass already understands — are spec-coverage
	// findings. For a LeaseWord, Writers are additionally exempt from
	// the after-publication write check: renewal is the one sanctioned
	// post-release store.
	Writers []string
	// Why records the one-line protocol argument for the word.
	Why string
}

// Edge declares one required happens-before edge.
type Edge struct {
	Kind EdgeKind
	// From and To are edge-kind specific; see the EdgeKind constants.
	From string
	To   string
	Why  string
}

// Guard declares a torn-read / size guard a one-sided reader relies
// on: Reader's body must keep a comparison against Bound.
type Guard struct {
	// Reader is the guarded function (types.Func.FullName form).
	Reader string
	// Bound is the identifier the guard compares against (a field,
	// constant, or parameter name visible in Reader's body).
	Bound string
	Why   string
}

// Spec is one package's declared publication protocol.
type Spec struct {
	// Name identifies the spec in lint findings and SARIF
	// fingerprints ("kv-guardian", "mailbox-ring", ...).
	Name string
	// Packages lists the import paths the protocol spans; every atomic
	// word they access must be declared by some spec.
	Packages []string

	Words  []Word
	Edges  []Edge
	Guards []Guard
}
