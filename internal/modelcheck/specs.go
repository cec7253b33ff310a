package modelcheck

import (
	"hydradb/internal/client"
	"hydradb/internal/kv"
	"hydradb/internal/lease"
	"hydradb/internal/message"
	"hydradb/internal/protocolspec"
	"hydradb/internal/replication"
)

// Specs returns every declared publication-protocol spec. A model's
// coverage is the union, over the specs whose Model names it, of their
// Packages, Footprint-marked words and SchedTags; hydralint's
// model-conformance pass reads the same Spec literals statically and
// checks that coverage against the code. This runtime view lets
// TestSpecsDeclareKnownModels pair the specs with the model registry.
func Specs() []protocolspec.Spec {
	return []protocolspec.Spec{
		kv.GuardianSpec,
		lease.RenewalSpec,
		message.RingSpec,
		replication.ReadySpec,
		client.SlotSpec,
	}
}
