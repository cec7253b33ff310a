package replication

import "hydradb/internal/protocolspec"

// ReadySpec declares the replication log's commit protocol: the
// secondary's applied watermark may only advance after the replicated
// record has actually been applied (promotion trusts the watermark), and
// PollOnce size-guards the slot's ready word against torn reads.
var ReadySpec = protocolspec.Spec{
	Name:     "replication-ready",
	Packages: []string{"hydradb/internal/replication"},
	Words: []protocolspec.Word{
		{
			Name: "hydradb/internal/replication.Secondary.applied",
			Role: protocolspec.CommitWord,
			Why:  "the watermark a failover promotion trusts; covered by the apply-after-replicate edge rather than a writer list so any new writer must also prove the ordering",
		},
	},
	Edges: []protocolspec.Edge{{
		Kind: protocolspec.ApplyAfterReplicate,
		From: "Apply",
		To:   "hydradb/internal/replication.Secondary.applied",
		Why:  "an applied sequence the store never saw would ack data loss; the applier call must precede the watermark store",
	}},
	Guards: []protocolspec.Guard{{
		Reader: "(*hydradb/internal/replication.Secondary).PollOnce",
		Bound:  "SlotSize",
		Why:    "the size half of a torn ready word must not slice past the record slot",
	}},
}
