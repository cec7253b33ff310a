package modelcheck

import (
	"fmt"
	"strings"

	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/protocolspec"
	"hydradb/internal/replication"
)

// Specs returns every declared publication-protocol spec, in the order
// their models appear in footprint.go (a model fed by several specs
// lists them consecutively, primary first). hydralint parses the same
// Spec literals statically; this runtime view exists so the footprints
// can be *generated* from the specs and diffed against the hand-written
// table, closing the lint <-> model-checker loop.
func Specs() []protocolspec.Spec {
	return []protocolspec.Spec{
		kv.GuardianSpec,
		lease.RenewalSpec,
		message.RingSpec,
		replication.ReadySpec,
	}
}

// GeneratedFootprints derives each model's Footprint from the specs:
// packages, Footprint-marked words, and SchedTags accumulate in
// first-seen order across the specs feeding one model.
// TestGeneratedFootprintsMatchHandWritten and `hydramc -footprints`
// require the result to match footprint.go byte-for-byte under
// RenderFootprint, so neither table can drift from the other.
func GeneratedFootprints() []Footprint {
	var order []string
	byModel := map[string]*Footprint{}
	for _, s := range Specs() {
		if s.Model == "" {
			continue
		}
		fp := byModel[s.Model]
		if fp == nil {
			// Built field-by-field, not as a composite literal: hydralint
			// statically parses every Footprint literal in this package as a
			// declaration, and this one's fields are runtime values.
			fp = new(Footprint)
			fp.Model = s.Model
			fp.Packages, fp.AtomicWords, fp.SchedTags = []string{}, []string{}, []string{}
			byModel[s.Model] = fp
			order = append(order, s.Model)
		}
		for _, pkg := range s.Packages {
			appendUnique(&fp.Packages, pkg)
		}
		for _, w := range s.Words {
			if w.Footprint {
				appendUnique(&fp.AtomicWords, w.Name)
			}
		}
		for _, t := range s.SchedTags {
			appendUnique(&fp.SchedTags, t)
		}
	}
	out := make([]Footprint, 0, len(order))
	for _, m := range order {
		out = append(out, *byModel[m])
	}
	return out
}

func appendUnique(dst *[]string, s string) {
	for _, have := range *dst {
		if have == s {
			return
		}
	}
	*dst = append(*dst, s)
}

// RenderFootprint is the canonical one-line rendering the generated/
// hand-written diff compares byte-for-byte. nil and empty slices render
// identically, so only real content differences fail the diff.
func RenderFootprint(fp Footprint) string {
	return fmt.Sprintf("model=%s packages=[%s] words=[%s] tags=[%s]",
		fp.Model,
		strings.Join(fp.Packages, " "),
		strings.Join(fp.AtomicWords, " "),
		strings.Join(fp.SchedTags, " "))
}

// SchedSkeleton renders the invariant.SchedPoint hook skeleton a model
// implementation is expected to interleave on, one call per generated
// SchedTag. `hydramc -footprints` prints it next to each footprint so a
// new model can be stubbed from its spec.
func SchedSkeleton(fp Footprint) []string {
	out := make([]string, 0, len(fp.SchedTags))
	for _, tag := range fp.SchedTags {
		out = append(out, fmt.Sprintf("invariant.SchedPoint(%q)", tag))
	}
	return out
}
