package kv

import "hydradb/internal/protocolspec"

// GuardianSpec declares the out-of-place PUT protocol (§4.2.3): every
// payload byte of an item lands before the guardian word's release
// store makes it visible to one-sided readers, and retraction precedes
// any reuse of the item's memory. hydralint proves the edges statically.
var GuardianSpec = protocolspec.Spec{
	Name:     "kv-guardian",
	Packages: []string{"hydradb/internal/arena", "hydradb/internal/kv"},
	Words: []protocolspec.Word{{
		Name: "hydradb/internal/arena.WordArea.words[]",
		Role: protocolspec.Guardian,
		Writers: []string{
			"(*hydradb/internal/arena.WordArea).AllocGroup",
			"(*hydradb/internal/arena.WordArea).Store",
			"(*hydradb/internal/arena.WordArea).CompareAndSwap",
		},
		Why: "an item's guardian, lease, location and popularity words, and the rings' indicator words, share the registered word area; the area methods are the only direct stores, and call-level ordering is proven by the payload-before-release flow pass, which also puts the location word before the release",
	}},
	Edges: []protocolspec.Edge{
		{
			Kind: protocolspec.PayloadBeforeRelease,
			From: "hydradb/internal/kv.GuardianLive",
			To:   "hydradb/internal/arena.WordArea.words[]",
			Why:  "storing GuardianLive releases the item to one-sided readers; every payload write must sequence before it",
		},
		{
			Kind: protocolspec.RetractBeforeFree,
			From: "hydradb/internal/kv.GuardianDead",
			To:   "(*hydradb/internal/arena.Arena).Free",
			Why:  "readers validate the guardian after copying; retraction must be visible before the payload bytes can be recycled",
		},
		{
			Kind: protocolspec.RetractBeforeFree,
			From: "hydradb/internal/kv.GuardianDead",
			To:   "(*hydradb/internal/arena.WordArea).FreeGroup",
			Why:  "a recycled word group must never still read GuardianLive for the dead item",
		},
	},
}

// LeaseRenewalSpec is declared next to the lease math in
// internal/lease; the lease word itself lives in kv's word area and
// its sanctioned writer is (*Store).touch. See lease.RenewalSpec.
