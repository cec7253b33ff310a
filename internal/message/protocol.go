package message

import "hydradb/internal/protocolspec"

// RingSpec declares the mailbox ring's indicator protocol: a slot's
// body copy completes before WriteLocal releases the head indicator
// word, Consume retires the indicator before the slot is reused, and
// Poll size-guards the indicator against torn reads so a half-written
// length can never over-slice into the neighbouring slot.
var RingSpec = protocolspec.Spec{
	Name:     "mailbox-ring",
	Packages: []string{"hydradb/internal/message", "hydradb/internal/arena"},
	Words: []protocolspec.Word{{
		Name: "hydradb/internal/arena.WordArea.words[]",
		Role: protocolspec.ReadyWord,
		Writers: []string{
			"(*hydradb/internal/arena.WordArea).AllocGroup",
			"(*hydradb/internal/arena.WordArea).Store",
			"(*hydradb/internal/arena.WordArea).CompareAndSwap",
		},
		Why: "ring indicator words live in the same registered word area as the kv guardians; the area methods are the only direct stores",
	}},
	Edges: []protocolspec.Edge{{
		Kind: protocolspec.PayloadBeforeRelease,
		From: "(*hydradb/internal/message.Mailbox).WriteLocal",
		To:   "hydradb/internal/arena.WordArea.words[]",
		Why:  "the remote peer polls the head indicator one-sidedly; the body bytes must be complete before the indicator is released",
	}},
	Guards: []protocolspec.Guard{{
		Reader: "(*hydradb/internal/message.Mailbox).Poll",
		Bound:  "slotCap",
		Why:    "the size field of a torn indicator must not slice past the slot's capacity",
	}},
}
