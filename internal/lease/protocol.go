package lease

import "hydradb/internal/protocolspec"

// RenewalSpec declares the lease protocol (§4.2.3): the lease word
// shares the published item's word group in kv's word area, and
// (*kv.Store).touch is the one writer sanctioned to store it after
// publication — renewal is monotonic and readers re-validate the
// guardian, so the usual no-writes-after-release rule does not apply
// to it. Client-side, ValidForRead must keep its safety margin so
// one-sided reads stop before the server can reclaim.
var RenewalSpec = protocolspec.Spec{
	Name:     "kv-lease",
	Packages: []string{"hydradb/internal/kv"},
	Words: []protocolspec.Word{{
		Name:    "hydradb/internal/arena.WordArea.words[]",
		Role:    protocolspec.LeaseWord,
		Writers: []string{"(*hydradb/internal/kv.Store).touch"},
		Why:     "the lease expiry occupies metaIdx+1 of the item's word group and the owner-only popularity metaIdx+3; touch renews both in place on the just-published item, including the popularity an update carries over from the replaced one",
	}},
	Guards: []protocolspec.Guard{{
		Reader: "hydradb/internal/lease.ValidForRead",
		Bound:  "marginNs",
		Why:    "clients must stop trusting a one-sided read a safety margin before expiry so reclamation cannot race the copy",
	}},
}
