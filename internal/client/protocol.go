package client

import "hydradb/internal/protocolspec"

// SlotSpec declares the pointer cache's slot seqlock: a writer makes the
// version odd, stores the payload words (and, for a new key, the key
// pointer and hash half), then releases the version two past where it
// found it; a reader trusts a payload only between two equal, even loads
// of the version.
// hydralint checks the writer list and the readers' re-check; hydramc's
// "ptrcache" model footprint is generated from this spec.
var SlotSpec = protocolspec.Spec{
	Name:     "client-ptrcache",
	Model:    "ptrcache",
	Packages: []string{"hydradb/internal/client"},
	Words: []protocolspec.Word{
		{
			Name:      "hydradb/internal/client.Slot.ver",
			Role:      protocolspec.Guardian,
			Footprint: true,
			Writers: []string{
				"(*hydradb/internal/client.Slot).Acquire",
				"(*hydradb/internal/client.Slot).Release",
			},
			Why: "version<<32 | tag: readers validate it before and after loading the payload, and a writer holds the slot while the version is odd",
		},
		{
			Name:      "hydradb/internal/client.Slot.w[]",
			Role:      protocolspec.PayloadGroup,
			Footprint: true,
			Writers:   []string{"(*hydradb/internal/client.Slot).SetWord"},
			Why:       "location, size and lease of the cached pointer; stored only by the writer holding the slot",
		},
		{
			Name:      "hydradb/internal/client.slotSide.key",
			Role:      protocolspec.PayloadGroup,
			Footprint: true,
			Writers:   []string{"(*hydradb/internal/client.ptrTable).publish"},
			Why:       "the slot's key, off the lookup line; Range, relocation and grow load it inside the version window",
		},
		{
			Name:      "hydradb/internal/client.slotSide.home",
			Role:      protocolspec.PayloadGroup,
			Footprint: true,
			Writers:   []string{"(*hydradb/internal/client.ptrTable).publish"},
			Why:       "the low half of the key's hash, stored with the key, so relocation and grow place the entry without rehashing",
		},
		{
			Name:      "hydradb/internal/client.slotSide.hits",
			Footprint: true,
			Writers: []string{
				"(*hydradb/internal/client.ptrTable).setHits",
				"(hydradb/internal/client.slotRef).touch",
			},
			Why: "advisory access counts for renewal and eviction, outside the seqlock: a count read beside another key's pointer only misjudges popularity",
		},
		{
			Name:      "hydradb/internal/client.ptrTable.used",
			Footprint: true,
			Writers: []string{
				"(*hydradb/internal/client.ptrTable).put",
				"(*hydradb/internal/client.ptrTable).relocate",
				"(*hydradb/internal/client.ptrTable).insert",
				"(hydradb/internal/client.slotRef).drop",
			},
			Why: "advisory occupancy count behind Len",
		},
		{
			Name:      "hydradb/internal/client.PtrCache.cur",
			Role:      protocolspec.PubWord,
			Footprint: true,
			Writers: []string{
				"hydradb/internal/client.NewCache",
				"(*hydradb/internal/client.PtrCache).Reset",
				"(*hydradb/internal/client.PtrCache).grow",
			},
			Why: "the current table; a grow installs its copy only over the table it copied, so it never undoes an epoch drop",
		},
	},
	Edges: []protocolspec.Edge{{
		Kind: protocolspec.PayloadBeforeRelease,
		From: "(*hydradb/internal/client.ptrTable).publish",
		To:   "hydradb/internal/client.Slot.ver",
		Why:  "the release store of the version makes the payload visible to lookups; every payload word must be stored before it",
	}},
	Guards: []protocolspec.Guard{
		{
			Reader: "(*hydradb/internal/client.ptrTable).lookup",
			Bound:  "recheck",
			Why:    "a payload loaded while a writer held the slot may mix two pointers; only an unchanged version proves it whole",
		},
		{
			Reader: "(*hydradb/internal/client.ptrTable).snapshot",
			Bound:  "recheck",
			Why:    "Range and grow pair the payload with its key only when the version did not move",
		},
	},
}
